(* Workload inputs: seeded computations of fixed shapes, their
   reference cuts, and the six detectors every workload rotates through.

   The reference cut of every trace is [Oracle.first_cut] on the dense
   computation, computed here in set-up and never on a timed path. The
   paper's first cut is unique, so every detector — dense, sliced,
   streamed or served — must return exactly this cut. *)

open Wcp_trace
open Wcp_core

(* Predicate density decides where the first cut lands, and with it
   how much of the run a detector must simulate and how many states
   the slice retains (measured at n=32: ~3.3 us and 88 words per event
   of slicing at p_pred 0.5, ~0.8 us and 30 words at p_pred 0.02). *)
type density =
  | Early  (** p_pred 0.5: the first cut lands within a few states *)
  | Late  (** p_pred 0.02 with every final state true: a cut exists, late *)
  | Never  (** p_pred 0.02 with process 0 never true: no cut *)
  | Sparse  (** p_pred 0.02 unforced: at n=32 almost surely no cut *)

type shape = { n : int; sends : int; density : density }

let p_pred = function Early -> 0.5 | Late | Never | Sparse -> 0.02

let trace_seed ~seed i =
  Int64.(add (mul (of_int seed) 1_000_003L) (of_int (i + 1)))

(* One computation of [shape], built densely and — when [writer] is
   given — streamed in the same pass into a btrace file. *)
let generate ?writer shape ~seed =
  let params =
    {
      Generator.n = shape.n;
      sends_per_process = shape.sends;
      p_pred = p_pred shape.density;
      p_recv = 0.5;
    }
  in
  let b = Builder.create ~n:shape.n in
  let set ~proc v =
    Builder.set_pred b ~proc v;
    Option.iter (fun w -> Btrace.Writer.set_pred w ~proc v) writer
  in
  Generator.generate_into ~params ~seed
    ~send:(fun ~src ~dst ->
      let m = Builder.send b ~src ~dst in
      match writer with
      | Some w -> (m, Btrace.Writer.send w ~src ~dst)
      | None -> (m, 0))
    ~recv:(fun ~dst (m, id) ->
      Builder.recv b ~dst m;
      Option.iter (fun w -> Btrace.Writer.recv w ~dst ~msg:id) writer)
    ~set_pred:(fun ~proc v ->
      set ~proc (v && not (shape.density = Never && proc = 0)))
    ();
  if shape.density = Late then
    for proc = 0 to shape.n - 1 do
      set ~proc true
    done;
  Option.iter Btrace.Writer.close writer;
  Builder.finish b

let all_procs n = Array.init n Fun.id

type common = {
  shape : shape;
  events : int;
  expect : Detection.outcome;  (** the oracle's first cut *)
}

let common shape comp =
  {
    shape;
    events = Computation.total_states comp - shape.n;
    expect = Oracle.first_cut comp (Spec.all comp);
  }

let no_cut c = c.expect = Detection.No_detection

(* --- the six detectors ------------------------------------------------ *)

let algos =
  [| "token-vc"; "multi-token"; "token-dd"; "token-dd-par"; "checker"; "parallel" |]

(* Operation [k] of every workload runs detector [k mod 6]. *)
let algo_of k = algos.(k mod Array.length algos)

(* Direct dependence cuts span all N processes, so its slice keeps the
   non-spec processes whole (the CLI's policy). *)
let keep_rest = function "token-dd" | "token-dd-par" -> true | _ -> false

let detect algo comp spec =
  let options = Detection.default_options and seed = 1L in
  match algo with
  | "token-vc" -> Token_vc.detect ~options ~seed comp spec
  | "multi-token" ->
      Token_multi.detect ~options ~groups:(min 2 (Spec.width spec)) ~seed comp
        spec
  | "token-dd" -> Token_dd.detect ~options ~seed comp spec
  | "token-dd-par" -> Token_dd.detect ~options ~parallel:true ~seed comp spec
  | "checker" -> Checker_centralized.detect ~options ~seed comp spec
  | "parallel" -> Checker_parallel.detect ~options ~seed comp spec
  | a -> invalid_arg ("unknown algorithm " ^ a)

(* --- canonical linearization ------------------------------------------ *)

(* Round-robin over processes, each blocked on its next receive until the
   matching send was emitted: the order [Slice.of_source] and the
   wcp-serve/1 client feed events in. *)
let linearize comp ~emit =
  let n = Computation.n comp in
  let ops = Array.init n (fun p -> Array.of_list (Computation.ops comp p)) in
  let cursor = Array.make n 0 in
  let sent = Hashtbl.create 4096 in
  let progress = ref true in
  while !progress do
    progress := false;
    for p = 0 to n - 1 do
      let blocked = ref false in
      while (not !blocked) && cursor.(p) < Array.length ops.(p) do
        let op = ops.(p).(cursor.(p)) in
        let ready =
          match op with
          | Computation.Send { msg; _ } ->
              Hashtbl.replace sent msg ();
              true
          | Computation.Recv { msg } ->
              Hashtbl.mem sent msg && (Hashtbl.remove sent msg; true)
        in
        if ready then begin
          cursor.(p) <- cursor.(p) + 1;
          let state = State.make ~proc:p ~index:(cursor.(p) + 1) in
          emit ~proc:p op ~pred:(Computation.pred comp state);
          progress := true
        end
        else blocked := true
      done
    done
  done
