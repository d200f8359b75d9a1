(* The two offline workloads: one operation is one trace brought from
   its stored bytes to a verified first cut, in-process.

   offline-text   Trace_codec.decode, then dense detection (no slice):
                  the default [wcpdetect detect FILE] path. Decode and
                  core/sim share the work; slice does none of it, so
                  this workload is the control for slicing changes.
   stream-btrace  Btrace.openfile/source (mmap cursor), then
                  Slice.for_spec_source and detection on the slice: the
                  [detect --stream] path, where slicing dominates. *)

open Wcp_trace
open Wcp_core
open Wcp_slice

type payload = Text of string | Btrace_file of string

type item = { c : Inputs.common; payload : payload }

(* Fixed shapes; the seed only changes their content. Seven traces
   (coprime with the six detectors), so the (trace, detector) pairing
   rotates through all 42 combinations. *)
let text_shapes =
  Inputs.
    [|
      { n = 8; sends = 1250; density = Early };
      { n = 8; sends = 1250; density = Late };
      { n = 16; sends = 1000; density = Early };
      { n = 16; sends = 1000; density = Late };
      { n = 16; sends = 1000; density = Never };
      { n = 32; sends = 700; density = Early };
      { n = 32; sends = 700; density = Never };
    |]

(* Five large n=32 traces: two dense-truth (cut found early, slicing
   retains about half the states) and three sparse-truth (no cut: the
   whole slice is simulated), so the median operation is a sparse one
   and p90 a dense one. *)
let btrace_shapes =
  Inputs.
    [|
      { n = 32; sends = 3900; density = Early };
      { n = 32; sends = 3900; density = Sparse };
      { n = 32; sends = 3900; density = Sparse };
      { n = 32; sends = 3900; density = Early };
      { n = 32; sends = 3900; density = Sparse };
    |]

let setup_text ~seed =
  Array.mapi
    (fun i shape ->
      let comp = Inputs.generate shape ~seed:(Inputs.trace_seed ~seed i) in
      { c = Inputs.common shape comp; payload = Text (Trace_codec.encode comp) })
    text_shapes

let setup_btrace ~seed ~dir =
  Array.mapi
    (fun i shape ->
      let path = Filename.concat dir (Printf.sprintf "t%d.btrace" i) in
      let writer = Btrace.Writer.create path ~n:shape.Inputs.n in
      let comp =
        Inputs.generate ~writer shape ~seed:(Inputs.trace_seed ~seed i)
      in
      { c = Inputs.common shape comp; payload = Btrace_file path })
    btrace_shapes

(* Per-operation facts the traced pass sums into exact counts. *)
type op_result = {
  ok : bool;
  events : int;
  result : Detection.result;
  retained : int;  (** slice anchors (0 on the dense path) *)
  skeleton : int;  (** slice skeleton messages *)
}

let detect_span algo ~events comp spec =
  Probe.span ~events ("core.detect." ^ algo) (fun () ->
      Inputs.detect algo comp spec)

let run_op k item =
  let algo = Inputs.algo_of k and events = item.c.Inputs.events in
  Probe.op_span k "bench.op" ~events (fun () ->
      match item.payload with
      | Text text ->
          let comp =
            Probe.span ~events "trace.text_decode" (fun () ->
                Trace_codec.decode text)
          in
          let spec = Spec.all comp in
          let r = detect_span algo ~events comp spec in
          let got = Detection.project_outcome spec r.Detection.outcome in
          {
            ok = Detection.outcome_equal got item.c.Inputs.expect;
            events;
            result = r;
            retained = 0;
            skeleton = 0;
          }
      | Btrace_file path ->
          let src =
            Probe.span "trace.btrace_open" (fun () ->
                Btrace.source (Btrace.openfile path))
          in
          let procs = Inputs.all_procs src.Computation.Stream.src_n in
          let sl =
            Probe.span ~events "slice.for_spec_source" (fun () ->
                Slice.for_spec_source ~keep_rest:(Inputs.keep_rest algo) src
                  ~procs)
          in
          let sliced = Slice.computation sl in
          let spec = Spec.make sliced procs in
          let r = detect_span algo ~events sliced spec in
          let got =
            Probe.span "slice.remap" (fun () ->
                Detection.remap_outcome (Slice.remap_cut sl)
                  r.Detection.outcome)
          in
          {
            ok = Detection.outcome_equal got item.c.Inputs.expect;
            events;
            result = r;
            retained = Slice.retained_states sl;
            skeleton = Slice.skeleton_messages sl;
          })

(* A cursor scan of a btrace: every op word and predicate flag read
   once through the mmap source (the read cost slicing pays, alone). *)
let scan_btrace k item =
  match item.payload with
  | Text _ -> ()
  | Btrace_file path ->
      Probe.op_span k "probe.btrace_scan" ~events:item.c.Inputs.events
        (fun () ->
          let src = Btrace.source (Btrace.openfile path) in
          let acc = ref 0 in
          for p = 0 to src.Computation.Stream.src_n - 1 do
            for j = 0 to src.Computation.Stream.num_ops p - 1 do
              (match src.Computation.Stream.op ~proc:p ~k:j with
              | Computation.Send { msg; _ } | Computation.Recv { msg } ->
                  acc := !acc + msg);
              if src.Computation.Stream.pred ~proc:p ~state:(j + 2) then
                incr acc
            done
          done;
          ignore (Sys.opaque_identity !acc))
