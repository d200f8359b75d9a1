(* wcpbench: the repository's end-to-end benchmark (see BENCHMARK.json
   and run.py, which builds and runs this program).

     wcpbench --workload W --seed N --seconds S --trace 0|1
              --wcpdetect EXE --work-dir DIR [--report FILE] [--spans FILE]

   Inputs are generated from --seed; the program under test only ever
   sees the generated traces. Every operation's cut is checked against
   the oracle's first cut, computed in set-up. With --trace 0 the
   end-to-end metrics are measured with tracing off; with --trace 1 a
   separate run records a span around every layer call and reports the
   per-layer metrics. The last stdout line is the result object. *)

open Wcp_core

type metric = { name : string; value : float; unit_ : string; samples : int }

let m ?(samples = 1) name unit_ value = { name; value; unit_; samples }

let nproc = Domain.recommended_domain_count ()

(* --- arguments ---------------------------------------------------------- *)

let workload = ref ""

let seed = ref 1

let seconds = ref 10.

let trace = ref 0

let wcpdetect = ref ""

let work_dir = ref ""

let report = ref ""

let spans_out = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W offline-text | stream-btrace | serve-feed");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S timed window (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer run (1)");
      ("--wcpdetect", Arg.Set_string wcpdetect, "EXE the daemon binary (serve-feed)");
      ("--work-dir", Arg.Set_string work_dir, "DIR temporary files of this run");
      ("--report", Arg.Set_string report, "FILE write the full result document here");
      ("--spans", Arg.Set_string spans_out, "FILE write the traced run's spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wcpbench --workload W --seed N --seconds S --trace 0|1 --work-dir DIR"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("wcpbench: " ^ s); exit 2) fmt

(* --- one run's bookkeeping ------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable no_cut : int;  (** operations whose reference has no cut *)
  mutable events : int;  (** input events of every attempted operation *)
  mutable errors : string list;
}

let tally = { attempted = 0; failed = 0; no_cut = 0; events = 0; errors = [] }

let count ~ok ~events ~no_cut ~err =
  tally.attempted <- tally.attempted + 1;
  tally.events <- tally.events + events;
  if no_cut then tally.no_cut <- tally.no_cut + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    tally.errors <- err :: tally.errors
  end

(* Set-up runs at least three times and until 1.5 s of set-up time have
   accumulated (at most seven), with a throwaway [release] and an
   untimed full collection between runs; setup_s is the median time and
   the last set-up is kept. The traced run sets up once. *)
let timed_setup ~release setup =
  let rec go times =
    Gc.full_major ();
    let t0 = Probe.now () in
    let v = setup () in
    let times = (Probe.now () -. t0) :: times in
    let reps = List.length times and total = List.fold_left ( +. ) 0. times in
    if !trace = 1 || reps >= 7 || (reps >= 3 && total >= 1.5) then (v, Array.of_list times)
    else begin
      release v;
      go times
    end
  in
  go []

let ms x = x *. 1000.

let latency_metrics lats =
  let n = Array.length lats in
  [
    m ~samples:n "latency_p50_ms" "ms" (ms (Probe.median lats));
    m ~samples:n "latency_p90_ms" "ms" (ms (Probe.quantile 0.9 lats));
  ]

(* --- offline workloads ------------------------------------------------------ *)

type window = { rates : float array; traced_rates : float array; lats : float array }

(* Operations k0, k0+1, ... in whole rounds of [round] operations (one
   per trace) until [secs] have passed. Each round yields one rate, the
   verified events it completed per second; events_per_s is their
   median, so a burst of machine noise moves one round, not the run.
   With [alternate], odd rounds are traced and their rates kept apart:
   interleaving makes machine drift cancel out of the tracing overhead. *)
let window ?(alternate = false) ~secs ~round ~k0 op =
  let t0 = Probe.now () in
  let k = ref k0 and i = ref 0 and rates = ref [] and traced = ref [] and lats = ref [] in
  while Probe.now () -. t0 < secs || (alternate && !i mod 2 = 1) do
    Probe.tracing := alternate && !i mod 2 = 1;
    let r0 = Probe.now () and ok_events = ref 0 in
    for _ = 1 to round do
      let s = Probe.now () in
      let ok, events = op !k in
      let d = Probe.now () -. s in
      Probe.heap_sample ();
      if ok then begin
        ok_events := !ok_events + events;
        lats := d :: !lats
      end;
      incr k
    done;
    let rate = float_of_int !ok_events /. (Probe.now () -. r0) in
    if !Probe.tracing then traced := rate :: !traced else rates := rate :: !rates;
    incr i
  done;
  Probe.tracing := false;
  { rates = Array.of_list !rates; traced_rates = Array.of_list !traced; lats = Array.of_list !lats }

let offline_op items k =
  let item = items.(k mod Array.length items) in
  let c = item.Offline.c in
  match Offline.run_op k item with
  | r ->
      count ~ok:r.Offline.ok ~events:c.Inputs.events ~no_cut:(Inputs.no_cut c)
        ~err:(Printf.sprintf "op %d (%s): wrong cut" k (Inputs.algo_of k));
      (r.Offline.ok, c.Inputs.events, Some r)
  | exception e ->
      count ~ok:false ~events:c.Inputs.events ~no_cut:(Inputs.no_cut c)
        ~err:(Printf.sprintf "op %d (%s): %s" k (Inputs.algo_of k) (Printexc.to_string e));
      (false, c.Inputs.events, None)

let eps w = Probe.median w.rates

(* Per-layer metrics from the spans of the traced run: a layer call's
   total time (ns) or allocation (words) per input event it processed,
   with the number of calls as the sample count; 0 where the workload
   never reaches the call. *)
let span_metrics () =
  let tot = Probe.totals_by_name () in
  let pe metric unit_ span =
    match Hashtbl.find_opt tot span with
    | Some t when t.Probe.evs > 0 ->
        let v = if unit_ = "words" then t.Probe.wds else t.Probe.secs *. 1e9 in
        m ~samples:t.Probe.count metric unit_ (v /. float_of_int t.Probe.evs)
    | _ -> m ~samples:0 metric unit_ 0.
  in
  let root_events =
    List.fold_left
      (fun acc (s : Probe.span) ->
        if s.Probe.parent < 0 && Probe.layer_of s.Probe.name = "bench" then acc + s.Probe.events
        else acc)
      0 (Probe.all_spans ())
  in
  let self = Probe.self_by_layer () in
  let self_metric layer =
    let secs = Option.value (Hashtbl.find_opt self layer) ~default:0. in
    m ("self." ^ layer ^ "_ns_per_event") "ns"
      (if root_events = 0 then 0. else secs *. 1e9 /. float_of_int root_events)
  in
  let detect_ms =
    Probe.all_spans ()
    |> List.filter (fun s -> s.Probe.name = "serve.detect")
    |> List.map (fun s -> s.Probe.t1 -. s.Probe.t0)
    |> Array.of_list
  in
  [
    pe "trace.text_decode_ns_per_event" "ns" "trace.text_decode";
    pe "trace.text_decode_words_per_event" "words" "trace.text_decode";
    pe "trace.btrace_read_ns_per_event" "ns" "probe.btrace_scan";
    pe "trace.frame_decode_ns_per_event" "ns" "trace.frame_decode";
    pe "serve.jsonl_decode_ns_per_event" "ns" "serve.jsonl_decode";
    pe "slice.ns_per_event" "ns" "slice.for_spec_source";
    pe "slice.words_per_event" "words" "slice.for_spec_source";
  ]
  @ List.concat_map
      (fun a ->
        [
          pe ("core.detect_ns_per_event." ^ a) "ns" ("core.detect." ^ a);
          pe ("core.detect_words_per_event." ^ a) "words" ("core.detect." ^ a);
        ])
      (Array.to_list Inputs.algos)
  @ [
      pe "serve.push_ns_per_event" "ns" "serve.push_batch";
      pe "serve.drain_ns_per_event" "ns" "serve.drain";
      m ~samples:(Array.length detect_ms) "serve.detect_ms" "ms"
        (if detect_ms = [||] then 0. else ms (Probe.median detect_ms));
    ]
  @ List.map self_metric [ "bench"; "trace"; "slice"; "core"; "serve" ]

type counts = {
  mutable engine_events : int;
  mutable messages : int;
  mutable bits : int;
  mutable work : int;
  mutable retained : int;
  mutable skeleton : int;
  mutable pass_events : int;
}

let counts =
  { engine_events = 0; messages = 0; bits = 0; work = 0; retained = 0; skeleton = 0; pass_events = 0 }

let count_metrics ~ops =
  let per x = if counts.pass_events = 0 then 0. else float_of_int x /. float_of_int counts.pass_events in
  let c name v = m ~samples:ops name "count" (float_of_int v) in
  [
    c "sim.engine_events" counts.engine_events;
    c "sim.messages" counts.messages;
    c "sim.bits" counts.bits;
    c "sim.work" counts.work;
    m ~samples:ops "slice.retained_per_event" "ratio" (per counts.retained);
    m ~samples:ops "slice.skeleton_msgs_per_event" "ratio" (per counts.skeleton);
  ]

let add_result (r : Detection.result) =
  counts.engine_events <- counts.engine_events + r.Detection.events;
  counts.messages <- counts.messages + Wcp_sim.Stats.total_sent r.Detection.stats;
  counts.bits <- counts.bits + Wcp_sim.Stats.total_bits r.Detection.stats;
  counts.work <- counts.work + Wcp_sim.Stats.total_work r.Detection.stats

(* --- the workloads ---------------------------------------------------------- *)

type outcome = {
  metrics : metric list;
  notes : (string * string) list;  (** the measured traffic, for the report *)
}

(* The traffic actually measured, for the report. *)
let traffic ~jsonl_share =
  let a = float_of_int (max 1 tally.attempted) in
  [
    ("events_per_op", Printf.sprintf "%.0f" (float_of_int tally.events /. a));
    ("no_cut_share", Printf.sprintf "%.4f" (float_of_int tally.no_cut /. a));
    ("jsonl_share", Printf.sprintf "%.4f" jsonl_share);
  ]
  @
  if counts.retained = 0 then []
  else
    [
      ( "slice_retained_ratio",
        Printf.sprintf "%.4f" (float_of_int counts.retained /. float_of_int counts.pass_events) );
    ]

let offline ~setup ~pass_len =
  let secs = !seconds in
  let op items k =
    let ok, ev, _ = offline_op items k in
    (ok, ev)
  in
  if !trace = 0 then begin
    let items, setups = timed_setup ~release:ignore setup in
    let round = Array.length items in
    Probe.heap_reset ();
    let w = window ~secs ~round ~k0:0 (op items) in
    {
      metrics =
        [
          m ~samples:(Array.length w.rates) "events_per_s" "1/s" (eps w);
          m ~samples:(Array.length w.lats) "peak_heap_mb" "MB" (Probe.heap_peak_mb ());
          m ~samples:(Array.length setups) "setup_s" "s" (Probe.median setups);
        ]
        @ latency_metrics w.lats;
      notes = traffic ~jsonl_share:0.;
    }
  end
  else begin
    let items, _ = timed_setup ~release:ignore setup in
    let round = Array.length items in
    (* one traced pass gives the exact counts; then alternating rounds *)
    Probe.tracing := true;
    for k = 0 to pass_len - 1 do
      let _, ev, r = offline_op items k in
      counts.pass_events <- counts.pass_events + ev;
      Option.iter
        (fun r ->
          add_result r.Offline.result;
          counts.retained <- counts.retained + r.Offline.retained;
          counts.skeleton <- counts.skeleton + r.Offline.skeleton)
        r
    done;
    Array.iteri (fun i it -> Offline.scan_btrace (-1 - i) it) items;
    let w = window ~alternate:true ~secs:(secs /. 2.) ~round ~k0:pass_len (op items) in
    let untraced = Probe.median w.rates and traced = Probe.median w.traced_rates in
    {
      metrics =
        span_metrics () @ count_metrics ~ops:pass_len
        @ [
            m "serve.wait_ms" "ms" 0.;
            m "serve.backlog_max_events" "count" 0.;
            m "bench.generator_late_ms" "ms" 0.;
            m ~samples:(Array.length w.rates + Array.length w.traced_rates)
              "bench.tracing_overhead" "ratio" ((untraced /. traced) -. 1.);
          ];
      notes =
        [
          ("untraced_events_per_s", Printf.sprintf "%.0f" untraced);
          ("traced_events_per_s", Printf.sprintf "%.0f" traced);
        ]
        @ traffic ~jsonl_share:0.;
    }
  end

let rm_rf dir =
  let rec go p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  try go dir with Sys_error _ -> ()

let serve_feed () =
  let secs = !seconds in
  if !wcpdetect = "" then fail "serve-feed needs --wcpdetect";
  let daemon = ref None in
  let stop () =
    Option.iter Served.stop_daemon !daemon;
    daemon := None
  in
  at_exit stop;
  let setup () =
    let items = Served.setup_items ~seed:!seed in
    let d = Served.start_daemon ~exe:!wcpdetect ~dir:!work_dir in
    daemon := Some d;
    (* warm-up: one binary and one JSONL session, not counted *)
    List.iter
      (fun k ->
        match Served.session d items k with
        | Ok o when o.Served.ok -> ()
        | Ok _ -> fail "warm-up session %d returned a wrong cut" k
        | Error e -> fail "warm-up session %d failed: %s" k e)
      [ 0; 3 ];
    (items, d)
  in
  let (items, d), setups = timed_setup ~release:(fun _ -> stop ()) setup in
  let record (p : Served.phase) =
    List.iter
      (function
        | Ok o ->
            count ~ok:o.Served.ok ~events:o.Served.events ~no_cut:o.Served.no_cut
              ~err:"served session returned a wrong cut"
        | Error e -> count ~ok:false ~events:0 ~no_cut:false ~err:e)
      p.Served.results
  in
  let oks (p : Served.phase) =
    List.filter_map (function Ok o when o.Served.ok -> Some o | _ -> None) p.Served.results
  in
  (* the traced run only needs the wait, backlog and lateness figures *)
  let secs = if !trace = 0 then secs else secs /. 2. in
  let window_peak = Served.reset_peak_rss d in
  let closed = Served.closed_loop d items ~secs:(0.4 *. secs) in
  let opened = Served.open_loop d items ~secs:(0.6 *. secs) in
  let peak_kb = Served.proc_status_kb d.Served.pid "VmHWM" in
  stop ();
  record closed;
  record opened;
  let closed_ok = oks closed and open_ok = oks opened in
  let lats = Array.of_list (List.map (fun o -> o.Served.latency) (closed_ok @ open_ok)) in
  let sessions = List.length closed.Served.results + List.length opened.Served.results in
  let jsonl_share =
    let j = ref 0 in
    for k = 0 to List.length closed.Served.results - 1 do
      if Served.is_jsonl k then incr j
    done;
    for k = 0 to List.length opened.Served.results - 1 do
      if Served.is_jsonl k then incr j
    done;
    float_of_int !j /. float_of_int (max 1 sessions)
  in
  let closed_events = List.fold_left (fun a o -> a + o.Served.events) 0 closed_ok in
  let phase_notes =
    [
      ("closed_sessions", string_of_int (List.length closed.Served.results));
      ("open_sessions", string_of_int (List.length opened.Served.results));
      ("peak_rss", if window_peak then "timed window" else "daemon lifetime");
    ]
  in
  if !trace = 0 then
    {
      metrics =
        [
          m ~samples:(List.length closed_ok) "events_per_s" "1/s"
            (float_of_int closed_events /. closed.Served.elapsed);
          m ~samples:(List.length closed_ok + List.length open_ok) "peak_heap_mb" "MB"
            (float_of_int peak_kb *. 1024. /. 1e6);
          m ~samples:(Array.length setups) "setup_s" "s" (Probe.median setups);
        ]
        @ latency_metrics lats;
      notes = phase_notes @ traffic ~jsonl_share;
    }
  else begin
    let waits =
      Array.of_list (List.map (fun o -> o.Served.latency -. o.Served.server_detect) open_ok)
    in
    let backlog = List.fold_left (fun a o -> max a o.Served.backlog) 0 (closed_ok @ open_ok) in
    let late = List.fold_left (fun a o -> Float.max a o.Served.late) 0. open_ok in
    (* in-process attribution over twelve sessions (every detector,
       three of them JSONL), each run untraced and then traced; the
       traced runs give the spans and the exact counts *)
    let pass_len = 12 in
    let untraced = ref 0. and traced = ref 0. in
    for k = 0 to pass_len - 1 do
      let item = items.(k mod Array.length items) in
      List.iter
        (fun on ->
          Probe.tracing := on;
          let t0 = Probe.now () in
          (match Served.run_inprocess k ~dir:!work_dir item with
          | ok, (engine_events, msgs, bits) ->
              if on then begin
                counts.pass_events <- counts.pass_events + item.Served.c.Inputs.events;
                counts.engine_events <- counts.engine_events + engine_events;
                counts.messages <- counts.messages + msgs;
                counts.bits <- counts.bits + bits
              end;
              count ~ok ~events:item.Served.c.Inputs.events
                ~no_cut:(Inputs.no_cut item.Served.c) ~err:"in-process session: wrong cut"
          | exception e ->
              count ~ok:false ~events:0 ~no_cut:false ~err:(Printexc.to_string e));
          let d = Probe.now () -. t0 in
          if on then traced := !traced +. d else untraced := !untraced +. d)
        [ false; true ]
    done;
    Probe.tracing := false;
    {
      metrics =
        span_metrics () @ count_metrics ~ops:pass_len
        @ [
            m ~samples:(Array.length waits) "serve.wait_ms" "ms"
              (if waits = [||] then 0. else ms (Probe.median waits));
            m ~samples:(List.length closed_ok + List.length open_ok)
              "serve.backlog_max_events" "count" (float_of_int backlog);
            m ~samples:(List.length open_ok) "bench.generator_late_ms" "ms" (ms late);
            m ~samples:(2 * pass_len) "bench.tracing_overhead" "ratio"
              ((!traced /. !untraced) -. 1.);
          ];
      notes = phase_notes @ traffic ~jsonl_share;
    }
  end

(* --- output ---------------------------------------------------------------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  if !work_dir = "" then fail "--work-dir is required";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (Sys.file_exists !work_dir) then Sys.mkdir !work_dir 0o700;
  at_exit (fun () -> rm_rf !work_dir);
  let outcome =
    match !workload with
    | "offline-text" ->
        offline
          ~setup:(fun () -> Offline.setup_text ~seed:!seed)
          ~pass_len:(Array.length Offline.text_shapes * Array.length Inputs.algos)
    | "stream-btrace" ->
        offline
          ~setup:(fun () -> Offline.setup_btrace ~seed:!seed ~dir:!work_dir)
          ~pass_len:(Array.length Inputs.algos)
    | "serve-feed" -> serve_feed ()
    | w -> fail "unknown workload %S (offline-text, stream-btrace, serve-feed)" w
  in
  if !spans_out <> "" && !trace = 1 then Probe.write_spans !spans_out;
  List.iter
    (fun mt ->
      if not (Float.is_finite mt.value) then fail "metric %s is not finite" mt.name)
    outcome.metrics;
  (* human-readable report *)
  Printf.eprintf "wcpbench %s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s\n"
    !workload !seed !seconds !trace nproc Sys.ocaml_version;
  List.iter
    (fun mt ->
      Printf.eprintf "  %-40s %16.6g %-6s n=%d\n" mt.name mt.value mt.unit_ mt.samples)
    outcome.metrics;
  List.iter (fun (k, v) -> Printf.eprintf "  %-40s %s\n" k v) outcome.notes;
  Printf.eprintf "  attempted=%d failed=%d error_rate=%g\n" tally.attempted tally.failed
    (float_of_int tally.failed /. float_of_int (max 1 tally.attempted));
  List.iter (fun e -> Printf.eprintf "  error: %s\n" e) (List.rev tally.errors);
  let metrics_json ~full =
    String.concat ","
      (List.map
         (fun mt ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S%s}" mt.name (json_num mt.value)
             mt.unit_
             (if full then Printf.sprintf ",\"samples\":%d" mt.samples else ""))
         outcome.metrics)
  in
  let correct = tally.failed = 0 && tally.attempted > 0 in
  if !report <> "" then begin
    let oc = open_out !report in
    Printf.fprintf oc
      "{\"workload\":%S,\"seed\":%d,\"seconds\":%g,\"trace\":%d,\"nproc\":%d,\"ocaml\":%S,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"error_rate\":%s,\"notes\":{%s},\"metrics\":{%s}}\n"
      !workload !seed !seconds !trace nproc Sys.ocaml_version correct tally.attempted
      tally.failed
      (json_num (float_of_int tally.failed /. float_of_int (max 1 tally.attempted)))
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%S" k v) outcome.notes))
      (metrics_json ~full:true);
    close_out oc
  end;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    tally.attempted tally.failed (metrics_json ~full:false);
  exit (if correct then 0 else 1)
