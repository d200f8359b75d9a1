open Wcp_trace
open Wcp_core

module Json = Wcp_obs.Export.Json
module Stats = Wcp_sim.Stats

(* ------------------------------------------------------------------ *)
(* Jobs and metrics                                                    *)
(* ------------------------------------------------------------------ *)

type job = {
  experiment : string;  (* "E1".."E9", "E15".."E22" *)
  algo : string;
  n : int;
  m : int;  (* sends per process (adversary: its m parameter) *)
  p_pred : float;
  seed : int;
  param : int;
      (* groups (E3), spec width (E5), workload index (E7), drop % (E9),
         domain count (E15, E18 parallel arm), delta flag 0/1 (E16),
         slice flag 0/1 (E17), restart flag 0/1 (E19), telemetry flag
         0/1 (E20), btrace-streamed flag 0/1 (E21), sessions*1000 +
         domains*10 + mode with mode 0 binary / 1 jsonl / 2 slow-client
         (E22), else 0 *)
}

(* [det] holds the metrics that are pure functions of the job, [wall]
   the machine-dependent ones. Each producer below emits only the names
   it measures. *)
type metrics = {
  job : job;
  outcome : string;
  det : (string * Json.t) list;
  wall : (string * Json.t) list;
}

let job_key j =
  Printf.sprintf "%s/%s n=%d m=%d p=%g seed=%d param=%d" j.experiment j.algo
    j.n j.m j.p_pred j.seed j.param

let find lane names r k =
  match List.assoc_opt k names with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Bench_json: %s has no %s metric %S" (job_key r.job)
           lane k)

let det r k = find "det" r.det r k
let wall r k = find "wall" r.wall r k
let det_int r k = Json.to_int (det r k)
let det_float r k = Json.to_float (det r k)
let wall_int r k = Json.to_int (wall r k)
let wall_float r k = Json.to_float (wall r k)

let int_m k v = (k, Json.Int v)
let float_m k v = (k, Json.Float v)
let ns_since t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)

(* The timed region of a job: wall clock and allocation, after a minor
   collection so every job starts from the same nursery state. *)
let timed ?(extra_ns = 0) f =
  Gc.minor ();
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let wall_ns = extra_ns + ns_since t0 in
  let alloc_bytes = int_of_float (Gc.allocated_bytes () -. alloc0) in
  (x, [ int_m "wall_ns" wall_ns; int_m "alloc_bytes" alloc_bytes ])

let algo_of job =
  match Algo.of_string job.algo with
  | Some a -> a
  | None -> invalid_arg ("Bench_json: unknown algo " ^ job.algo)

let gen_params job =
  {
    Generator.n = job.n;
    sends_per_process = job.m;
    p_pred = job.p_pred;
    p_recv = 0.5;
  }

(* E7 rows with [param = i > 0] detect on the i-th scenario workload;
   [param = 0] rows detect on a random computation like every other
   experiment. *)
let e7_workload job =
  if job.experiment = "E7" && job.param > 0 then
    Some (List.nth (Workloads.all ~seed:2025L) (job.param - 1))
  else None

let comp_and_spec job =
  match e7_workload job with
  | Some w -> (w.Workloads.comp, Spec.make w.Workloads.comp w.Workloads.procs)
  | None ->
      let comp = Generator.random ~params:(gen_params job) ~seed:(Int64.of_int job.seed) () in
      let spec =
        match job.experiment with
        | "E4" | "E8" -> Spec.make comp [| 0; job.n / 2 |]
        | "E5" ->
            let rng = Wcp_util.Rng.create (Int64.of_int job.seed) in
            Spec.make comp
              (Generator.random_procs rng ~n:job.n ~width:job.param)
        | _ -> Spec.all comp
      in
      (comp, spec)

(* One simulation run of a job, optionally traced. A fresh fault plan
   is built per run (its PRNG stream is private mutable state). *)
let run_sim ?recorder job =
  let comp, spec = comp_and_spec job in
  let seed = Int64.of_int job.seed in
  (* E9 runs under chaos: drop rate param%, duplication at half the
     drop rate, fault stream seeded by the job seed. *)
  let fault =
    if job.experiment = "E9" then
      Some
        (Wcp_sim.Fault.uniform ~seed
           ~drop:(float_of_int job.param /. 100.0)
           ~dup:(float_of_int job.param /. 200.0)
           ())
    else if job.experiment = "E19" && job.param <> 0 then
      (* E19 restart arm: the monitor of application process 0 (engine
         id n+0) crashes mid-protocol and comes back with its state
         restored from the last checkpoint, taken after every handled
         message. param=0 is the fault-free reference; the spelled-out
         cut in [outcome] pins the two arms byte-identical. *)
      Some
        (Wcp_sim.Fault.make
           ~windows:
             [
               Wcp_sim.Fault.window ~kind:Wcp_sim.Fault.Restart ~proc:job.n
                 ~from_t:2.0 ~until_t:10.0 ();
             ]
           ())
    else None
  in
  (* E16 ablates the wire encoding: param=1 is the hybrid delta
     encoding (the default everywhere else), param=0 forces dense. The
     encoding changes no message counts and no RNG draws, so every
     metric except [bits] is identical across the two arms. *)
  let delta = if job.experiment = "E16" then job.param <> 0 else true in
  (* E17 ablates computation slicing: param=1 detects on the slice
     (identical outcome, remapped cut), param=0 on the dense run. *)
  let slice = job.experiment = "E17" && job.param <> 0 in
  let options = Detection.options ~delta () in
  (* E3 sweeps the multi-token group count in [param]; elsewhere
     multi-token runs 2 groups (the E3 sweet spot). *)
  let groups = if job.experiment = "E3" then job.param else 2 in
  (* E18: [param] is the domain count of the parallel checker itself
     (the detector's own fan-out, not the bench harness parallelism). *)
  let domains =
    if job.experiment = "E18" && job.param > 0 then Some job.param else None
  in
  let r =
    Algo.run (algo_of job) ?fault ?recorder ~groups ?domains ~slice ~options
      ~seed comp spec
  in
  (comp, spec, r)

(* The counters every detection run reports. *)
let counters ~states (r : Detection.result) =
  let s = r.stats in
  [
    int_m "states" states;
    int_m "hops" r.extras.token_hops;
    int_m "polls" r.extras.polls;
    int_m "snapshots" r.extras.snapshots;
    int_m "merges" r.extras.merges;
    int_m "work" (Stats.total_work s);
    int_m "max_work" (Stats.max_work s);
    int_m "messages" (Stats.total_sent s);
    int_m "bits" (Stats.total_bits s);
    int_m "events" r.events;
    float_m "sim_time" r.sim_time;
  ]

let outcome_word = function
  | Detection.Detected _ -> "detected"
  | Detection.No_detection -> "none"
  | Detection.Undetectable_crashed _ -> "undetectable"

let spelled = function
  | Detection.Detected cut -> Format.asprintf "detected %a" Cut.pp cut
  | o -> outcome_word o

(* Columns of the E1-E7 tables that the counters do not carry. The
   detecting processes are the monitors (engine ids n..2n-1) and the
   checker (2n); see Run_common. *)
let table_extras job comp spec (r : Detection.result) =
  let n = Computation.n comp in
  let detectors f = List.init (n + 1) (fun i -> f r.stats (n + i)) in
  let mon_bits () =
    List.fold_left ( + ) 0
      (List.init n (fun p -> Stats.bits r.stats (Run_common.monitor_of ~n p)))
  in
  let max_events () =
    int_m "max_events" (Computation.max_events_per_process comp)
  in
  let max_space () =
    int_m "max_space"
      (List.fold_left max 0 (detectors Stats.space_high_water))
  in
  match job.experiment with
  | "E1" -> [ max_events () ]
  | "E2" -> [ max_space () ]
  | "E4" -> [ max_events (); int_m "mon_bits" (mon_bits ()); max_space () ]
  | "E5" ->
      (* The monitoring traffic an algorithm adds: monitor bits plus
         the applications' snapshot bits. *)
      let snap_bits =
        match algo_of job with
        | Algo.Token_vc -> r.extras.snapshots * 32 * (job.param + 1)
        | _ ->
            (r.extras.snapshots * 32)
            + (2 * 32 * Snapshot.total_dd_deps comp spec)
      in
      [ int_m "traffic_bits" (mon_bits () + snap_bits) ]
  | "E7" ->
      let expected = Oracle.first_cut comp spec in
      let got = Algo.spec_outcome (algo_of job) spec r in
      [
        ( "oracle",
          Json.Str
            (match expected with
            | Detection.Detected _ -> "detect"
            | Detection.No_detection -> "none"
            | Detection.Undetectable_crashed _ -> "crash") );
        int_m "agrees" (Bool.to_int (Detection.outcome_equal got expected));
      ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Producers                                                           *)
(* ------------------------------------------------------------------ *)

(* E6: the §5 lower-bound game is deterministic and has no simulation
   behind it; [work] and [max_work] count its forced deletions,
   [events] its rounds. *)
let run_adversary job =
  let (answer, trace), wall =
    timed (fun () ->
        let world, _ = Wcp_lowerbound.Adversary.make ~n:job.n ~m:job.m in
        Wcp_lowerbound.Detector.run world)
  in
  let deletions = trace.Wcp_lowerbound.Detector.deletions in
  {
    job;
    outcome =
      (match answer with
      | Wcp_lowerbound.Detector.No_antichain -> "none"
      | _ -> "detected");
    det =
      [
        int_m "work" deletions;
        int_m "max_work" deletions;
        int_m "events" trace.Wcp_lowerbound.Detector.rounds;
      ];
    wall;
  }

(* E15: one job = a fixed batch of [e15_sessions] independent detection
   sessions (same workload shape, session seeds 1..k) pushed through
   [Parallel.map] with [job.param] domains. The counters are batch
   totals ([max_work] the batch maximum), so an E15 row is identical
   whatever domain count produced it; [outcome] is "ok" iff the
   per-session results are identical to a sequential (1-domain)
   reference run of the same batch — the {!Wcp_util.Parallel}
   determinism contract, asserted on every bench run. *)
let e15_sessions = 24

let run_e15 job =
  if job.param < 1 then
    invalid_arg "Bench_json: E15 param is the domain count (>= 1)";
  let session seed =
    let comp, _, r = run_sim { job with seed; param = 0 } in
    (r.Detection.outcome, counters ~states:(Computation.total_states comp) r)
  in
  let session_seeds = Array.init e15_sessions (fun i -> i + 1) in
  let batch, wall =
    timed (fun () ->
        Wcp_util.Parallel.map ~domains:job.param session session_seeds)
  in
  (* The reference run sits outside the timed window: sessions/sec is
     the parallel batch only. *)
  let reference = Wcp_util.Parallel.map ~domains:1 session session_seeds in
  let add (k, a) (_, b) =
    match (a, b) with
    | Json.Int a, Json.Int b -> int_m k (if k = "max_work" then max a b else a + b)
    | a, b -> float_m k (Json.to_float a +. Json.to_float b)
  in
  let det =
    Array.fold_left
      (fun acc (_, c) -> List.map2 add acc c)
      (snd batch.(0))
      (Array.sub batch 1 (e15_sessions - 1))
  in
  { job; outcome = (if batch = reference then "ok" else "mismatch"); det; wall }

(* E21: param=0 writes the generated run as a text trace, decodes it
   back into the dense computation and detects on that; param=1
   streams the identical run (same seed, same RNG draw sequence) into a
   btrace file and detects through the zero-copy cursor — the slice is
   built straight off the mmap, the dense computation never exists.
   Both arms spell the detected cut out in dense coordinates, pinning
   the streamed arm byte-identical to the dense arm. [decode_ns] times
   the load step (text decode vs btrace open + slice construction),
   [peak_words] is the live-heap delta that step left behind (the
   bounded-memory evidence: the streamed figure tracks the slice, not
   the trace length), [trace_bytes] the on-disk size. *)
let run_e21 job =
  let params = gen_params job in
  let seed = Int64.of_int job.seed in
  let streamed = job.param <> 0 in
  let path =
    Filename.temp_file "wcp_e21" (if streamed then ".btrace" else ".trace")
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      if streamed then ignore (Generator.random_btrace ~params ~seed path)
      else Trace_codec.write_file path (Generator.random ~params ~seed ());
      let trace_bytes = (Unix.stat path).Unix.st_size in
      let procs = Array.init job.n Fun.id in
      let algo = algo_of job in
      let live_words () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      let live0 = live_words () in
      let t0 = Unix.gettimeofday () in
      (* The load step: everything between the bytes on disk and a
         computation a detector accepts. *)
      let comp, remap =
        if streamed then begin
          let sl =
            Wcp_slice.Slice.for_spec_source ~keep_rest:(Algo.full_width algo)
              (Btrace.source (Btrace.openfile path))
              ~procs
          in
          (Wcp_slice.Slice.computation sl, Wcp_slice.Slice.remap_cut sl)
        end
        else (Trace_codec.read_file path, Fun.id)
      in
      let decode_ns = ns_since t0 in
      let peak_words = max 0 (live_words () - live0) in
      let spec = Spec.make comp procs in
      (* E21's wall covers the whole pipeline, load included: the load
         step IS what this experiment benchmarks, and the detect-only
         slice of the big row is small enough that scheduler jitter
         would trip the 20% gate on it alone. *)
      let r, wall =
        timed ~extra_ns:decode_ns (fun () ->
            Algo.run algo ~options:(Detection.options ()) ~seed comp spec)
      in
      {
        job;
        outcome = spelled (Detection.remap_outcome remap r.Detection.outcome);
        det =
          (* Dense states of the recorded run, whichever arm: each of
             the n processes has events + 1 states. *)
          counters ~states:(job.n + (job.n * 2 * job.m)) r
          @ (if streamed then
               [ int_m "slice_states" (Computation.total_states comp) ]
             else [])
          @ [ int_m "trace_bytes" trace_bytes ];
        wall =
          wall @ [ int_m "decode_ns" decode_ns; int_m "peak_words" peak_words ];
      })

(* E22: param = sessions*1000 + domains*10 + mode; mode 0 streams
   wcp-frame/1 binary frames, 1 the JSONL encoding, 2 the slow-client
   arm (binary frames into a deliberately tiny ring behind a slowed
   worker — the shed-to-disk regime, with the heap extent sampled while
   serving).

   One real [Wcp_serve.Server] runs in-process on a unix socket in a
   temp dir; [sessions] concurrent [Wcp_serve.Client] feeders each
   stream the SAME generated computation (same seed), so every served
   result must agree — with each other and with the offline streamed
   reference ([Run_common.on_slice] through the same [Algo.run]
   [Wcp_serve.Session] uses). [outcome] spells the common served cut,
   or a "mismatch" marker; messages/bits/hops/events are summed across
   sessions. events_per_sec (aggregate ingest over the whole serve
   window) and the per-session submit-to-result latency percentiles are
   wall-derived; the absolute throughput gate lives in bench/main.ml's
   perf-check. *)
let run_e22 job =
  let sessions = job.param / 1000 in
  let domains = job.param / 10 mod 100 in
  let mode = job.param mod 10 in
  if sessions < 1 || domains < 1 || mode > 2 then
    invalid_arg ("Bench_json.run_e22: bad param " ^ string_of_int job.param);
  let frames =
    if mode = 1 then Wcp_serve.Protocol.Jsonl else Wcp_serve.Protocol.Binary
  in
  let slow = mode = 2 in
  let seed = Int64.of_int job.seed in
  let comp = Generator.random ~params:(gen_params job) ~seed () in
  let procs = Array.init job.n Fun.id in
  let offline =
    let algo = algo_of job in
    let r =
      Run_common.on_slice ~procs
        (fun () ->
          Wcp_slice.Slice.for_spec_source ~keep_rest:(Algo.full_width algo)
            (Computation.Stream.of_computation comp)
            ~procs)
        ~run:(Algo.run algo ~options:Detection.default_options ~seed)
    in
    Format.asprintf "%a" Detection.pp_outcome r.Detection.outcome
  in
  let dir = Filename.temp_file "wcp_e22" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun f -> Sys.remove (Filename.concat dir f))
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let addr = Wcp_serve.Protocol.Unix_sock (Filename.concat dir "sock") in
      let cfg =
        {
          (Wcp_serve.Server.default_config ~addr) with
          Wcp_serve.Server.domains = Some domains;
          spool_dir = dir;
          max_sessions = sessions;
          ring = (if slow then 512 else 4096);
          drain_delay = (if slow then 0.0005 else 0.);
          log = ignore;
        }
      in
      (* Main domain hosts the feeder threads and the server's conn
         threads; give it the same nursery the shard workers get, and
         start from a compacted heap so the hundreds of jobs that ran
         before this one in the same process don't tax the timed
         window with their fragmentation. *)
      Wcp_serve.Server.tune_gc cfg.Wcp_serve.Server.gc_minor_words;
      Gc.compact ();
      let srv = Wcp_serve.Server.create cfg in
      let sth = Thread.create Wcp_serve.Server.run srv in
      (* Slow arm: sample major-heap extent while serving. Gc.compact
         first so the baseline is the live set, not whatever earlier
         jobs grew the heap to. *)
      let sampling = ref slow in
      let peak = ref 0 in
      let base =
        if slow then begin
          Gc.compact ();
          (Gc.quick_stat ()).Gc.heap_words
        end
        else 0
      in
      let sampler =
        if slow then
          Some
            (Thread.create
               (fun () ->
                 while !sampling do
                   let h = (Gc.quick_stat ()).Gc.heap_words in
                   if h > !peak then peak := h;
                   Thread.delay 0.002
                 done)
               ())
        else None
      in
      let src = Computation.Stream.of_computation comp in
      let results = Array.make sessions (Result.Error "unset") in
      let lats = Array.make sessions 0 in
      let t0 = Unix.gettimeofday () in
      let feeders =
        Array.init sessions (fun i ->
            Thread.create
              (fun () ->
                let s0 = Unix.gettimeofday () in
                results.(i) <-
                  Wcp_serve.Client.run_session ~frames ~retry:5. ~addr
                    ~session:(Printf.sprintf "e22-%d" i)
                    ~algo:job.algo ~procs ~seed src;
                lats.(i) <- ns_since s0)
              ())
      in
      Array.iter Thread.join feeders;
      let wall_ns = ns_since t0 in
      Wcp_serve.Server.stop srv;
      Thread.join sth;
      sampling := false;
      Option.iter Thread.join sampler;
      let ok = ref 0 in
      let served = ref "" in
      let agree = ref true in
      let msgs = ref 0 and bits = ref 0 and hops = ref 0 and events = ref 0 in
      Array.iter
        (function
          | Result.Ok (Wcp_serve.Client.Completed o) ->
              incr ok;
              if !served = "" then served := o.Wcp_serve.Client.outcome
              else if o.Wcp_serve.Client.outcome <> !served then agree := false;
              msgs := !msgs + o.Wcp_serve.Client.msgs;
              bits := !bits + o.Wcp_serve.Client.bits;
              hops := !hops + o.Wcp_serve.Client.hops;
              events := !events + o.Wcp_serve.Client.events
          | Result.Ok (Wcp_serve.Client.Killed _) -> agree := false
          | Result.Error _ -> agree := false)
        results;
      let outcome =
        if !ok = sessions && !agree && !served = offline then !served
        else
          Printf.sprintf "mismatch (%d/%d completed, served %S, offline %S)"
            !ok sessions !served offline
      in
      (* ops per generated process: m sends + m receives *)
      let ingested = sessions * 2 * job.n * job.m in
      let pct q =
        let s = Array.copy lats in
        Array.sort compare s;
        s.(min (sessions - 1) (int_of_float (q *. float_of_int (sessions - 1) +. 0.5)))
      in
      {
        job;
        outcome;
        det =
          [
            int_m "states" (job.n + (job.n * 2 * job.m));
            int_m "hops" !hops;
            int_m "messages" !msgs;
            int_m "bits" !bits;
            int_m "events" !events;
          ];
        wall =
          [
            int_m "wall_ns" wall_ns;
            float_m "events_per_sec"
              (float_of_int ingested /. (float_of_int (max 1 wall_ns) /. 1e9));
            int_m "lat_p50_ns" (pct 0.50);
            int_m "lat_p95_ns" (pct 0.95);
          ]
          @ if slow then [ int_m "peak_words" (max 0 (!peak - base)) ] else [];
      })

(* One detection run with the full streaming telemetry plane attached:
   a capacity-1 ring whose tap feeds a live [Wcp_obs.Telemetry]. Returns
   the run and the wcp-metrics/1 stream it emitted. *)
let run_attached job =
  let buf = Buffer.create 4096 in
  let tel =
    Wcp_obs.Telemetry.create
      ~sink:(fun l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n')
      ()
  in
  let ring = Wcp_obs.Recorder.create ~capacity:1 () in
  Wcp_obs.Telemetry.attach tel ring;
  let run = run_sim ~recorder:ring job in
  Wcp_obs.Telemetry.close tel;
  (run, Buffer.contents buf)

(* Structural stream equality modulo allocation samples: two in-process
   runs may legally differ in per-phase alloc_bytes (domain warm-up
   effects), so the determinism check zeroes them. Cross-process byte
   identity — allocation included — is the CLI sweep's job
   (`make telemetry-check`). *)
let stream_deterministic a b =
  let norm s =
    match Wcp_obs.Telemetry.decode s with
    | Result.Error _ -> None
    | Result.Ok ls ->
        Some
          (List.map
             (function
               | Wcp_obs.Telemetry.Phase p ->
                   Wcp_obs.Telemetry.Phase
                     { p with Wcp_obs.Telemetry.alloc_bytes = 0 }
               | l -> l)
             ls)
  in
  let na = norm a in
  na <> None && na = norm b

(* Every other experiment: one timed detection run, then a second,
   traced run outside the timed window. Recording never touches the
   engine RNG or stats, so the traced run follows the identical
   schedule and the trace-derived metrics are as deterministic as
   [hops]. *)
let run_detection job =
  (* E20 telemetry arm (param=1): the timed run carries the always-on
     streaming plane, so wall_ns prices it against the bare param=0
     reference row. *)
  let telemetry_on = job.experiment = "E20" && job.param <> 0 in
  let ((comp, spec, r), timed_stream), wall =
    timed (fun () ->
        if telemetry_on then run_attached job else (run_sim job, ""))
  in
  let recorder = Wcp_obs.Recorder.create () in
  let _ = run_sim ~recorder job in
  let events = Wcp_obs.Recorder.events recorder in
  let _, s = Wcp_obs.Metrics.of_events events in
  let q h p = Wcp_obs.Metrics.quantile h p in
  let spans = Wcp_obs.Span.of_events events in
  let spq kind p =
    Wcp_obs.Span.percentile (Wcp_obs.Span.durations kind spans) p
  in
  (* The telemetry replay strips allocation sampling, so the line count
     is a pure function of the events. *)
  let telemetry_lines =
    let tel =
      Wcp_obs.Telemetry.create ~alloc:(fun () -> 0.) ~sink:(fun (_ : string) -> ()) ()
    in
    Array.iter (fun e -> Wcp_obs.Telemetry.feed tel e) events;
    Wcp_obs.Telemetry.close tel;
    Wcp_obs.Telemetry.lines tel
  in
  (* E20 determinism contract: a second attached run reproduces the
     timed run's stream (alloc samples aside). A mismatch poisons
     [outcome] so the baseline comparison fails loudly. *)
  let telemetry_ok =
    (not telemetry_on)
    ||
    let _, stream2 = run_attached job in
    stream_deterministic timed_stream stream2
  in
  (* E17 sliced arm: rebuild the slice outside the timed window to
     report its shape and isolated construction cost (the timed run
     above already paid construction inside [detect], so wall_ns
     compares end-to-end dense vs sliced). *)
  let sliced = job.experiment = "E17" && job.param <> 0 in
  let slice_det, slice_wall =
    if sliced then begin
      let t0 = Unix.gettimeofday () in
      let sl =
        Wcp_slice.Slice.for_spec ~keep_rest:(Algo.full_width (algo_of job))
          comp ~procs:(Spec.procs spec)
      in
      let ns = ns_since t0 in
      ( [
          int_m "slice_states"
            (Computation.total_states (Wcp_slice.Slice.computation sl));
        ],
        [ int_m "slice_ns" ns ] )
    end
    else ([], [])
  in
  (* E19: recovery latency is the simulation time from the restarted
     monitor's state restore (the Restored trace event) to the end of
     the run — how long the healed protocol needed to reach its verdict
     after the crash; 0 when no restore fired. *)
  let recovery =
    if job.experiment <> "E19" then []
    else
      let restore_t =
        Array.fold_left
          (fun acc (e : Wcp_obs.Event.t) ->
            match e.body with
            | Wcp_obs.Event.Restored _ -> Float.max acc e.time
            | _ -> acc)
          Float.neg_infinity events
      in
      [
        float_m "recovery_latency"
          (if restore_t = Float.neg_infinity then 0.0
           else r.sim_time -. restore_t);
      ]
  in
  (* Parallel-checker round shape: deterministic and domain-count
     independent — the frozen-frontier rounds compute the same
     thresholds whatever the fan-out. *)
  let rounds =
    if algo_of job <> Algo.Parallel then []
    else
      [
        int_m "par_rounds" (Stats.par_rounds r.stats);
        int_m "par_frontier" (Stats.par_max_frontier r.stats);
        int_m "par_items" (Stats.par_items r.stats);
      ]
  in
  {
    job;
    outcome =
      (if not telemetry_ok then "telemetry-mismatch"
       else
         (* E17-E20 spell the cut out (in dense coordinates): E17 pins
            the sliced arm to the dense arm's exact cut, E18 every
            domain count to the centralized checker's cut, E19 the
            crash-recovery arm to the fault-free reference's cut, and
            E20 the telemetry-attached arm to the bare reference's. *)
         match job.experiment with
         | "E17" | "E18" | "E19" | "E20" -> spelled r.Detection.outcome
         | _ -> outcome_word r.Detection.outcome);
    det =
      counters ~states:(Computation.total_states comp) r
      @ [
          int_m "retransmits" (Stats.total_retransmits r.stats);
          int_m "dups_suppressed" (Stats.total_dups_suppressed r.stats);
          int_m "net_dropped" (Stats.net_dropped r.stats);
          int_m "net_duplicated" (Stats.net_duplicated r.stats);
          int_m "replayed" (Stats.replayed r.stats);
        ]
      @ recovery
      @ [
          int_m "trace_events" (Wcp_obs.Recorder.emitted recorder);
          int_m "eliminations"
            (Wcp_obs.Metrics.count s.Wcp_obs.Metrics.eliminations);
          float_m "hop_p50" (q s.Wcp_obs.Metrics.hop_latency 0.5);
          float_m "hop_p95" (q s.Wcp_obs.Metrics.hop_latency 0.95);
          float_m "hop_max"
            (Wcp_obs.Metrics.hist_max s.Wcp_obs.Metrics.hop_latency);
          float_m "elims_per_hop_p50" (q s.Wcp_obs.Metrics.elims_per_hop 0.5);
          float_m "elims_per_hop_p95" (q s.Wcp_obs.Metrics.elims_per_hop 0.95);
          float_m "elims_per_hop_max"
            (Wcp_obs.Metrics.hist_max s.Wcp_obs.Metrics.elims_per_hop);
        ]
      @ slice_det @ rounds
      @ [
          float_m "span_token_p50" (spq Wcp_obs.Span.Token 0.5);
          float_m "span_token_p95" (spq Wcp_obs.Span.Token 0.95);
          float_m "span_round_p50" (spq Wcp_obs.Span.Round 0.5);
          float_m "span_round_p95" (spq Wcp_obs.Span.Round 0.95);
          float_m "span_recovery_p50" (spq Wcp_obs.Span.Recovery 0.5);
          float_m "span_recovery_p95" (spq Wcp_obs.Span.Recovery 0.95);
          float_m "span_retx_p50" (spq Wcp_obs.Span.Retx_burst 0.5);
          float_m "span_retx_p95" (spq Wcp_obs.Span.Retx_burst 0.95);
          int_m "telemetry_lines" telemetry_lines;
        ]
      @ table_extras job comp spec r;
    wall = wall @ slice_wall;
  }

let run_job job =
  match job.experiment with
  | "E6" -> run_adversary job
  | "E15" -> run_e15 job
  | "E21" -> run_e21 job
  | "E22" -> run_e22 job
  | _ -> run_detection job

(* ------------------------------------------------------------------ *)
(* Sweep profiles                                                      *)
(* ------------------------------------------------------------------ *)

type profile = Full | Smoke

let profile_name = function Full -> "full" | Smoke -> "smoke"

let profile_of_name = function
  | "full" -> Full
  | "smoke" -> Smoke
  | s -> invalid_arg ("Bench_json.profile_of_name: " ^ s)

let job ?(p_pred = 0.3) ?(param = 0) experiment algo ~n ~m ~seed () =
  { experiment; algo; n; m; p_pred; seed; param }

let seeds = [ 1; 2; 3 ]

let e7_algos = [ "checker"; "token-vc"; "token-multi"; "token-dd"; "token-dd-par" ]

(* E7: scenario workload [i] (1-based index into [Workloads.all], its
   own process count and spec) detected with seed 11. *)
let e7_workload_job algo i =
  job "E7" algo ~n:0 ~m:0 ~p_pred:0.0 ~param:i ~seed:11 ()

let jobs = function
  | Smoke ->
      (* Every smoke job is ALSO a Full job (same key, same workload),
         so a smoke run can be perf-checked against the committed full
         baseline in subset mode — the `make bench-smoke` gate. *)
      let arms experiment ?p_pred algos =
        List.concat_map
          (fun algo ->
            List.map
              (fun param -> job experiment algo ~n:8 ~m:20 ?p_pred ~param ~seed:1 ())
              [ 0; 1 ])
          algos
      in
      [
        job "E1" "token-vc" ~n:8 ~m:20 ~seed:1 ();
        job "E1" "token-vc" ~n:8 ~m:20 ~seed:2 ();
        job "E2" "checker" ~n:8 ~m:16 ~seed:1 ();
        job "E2" "token-vc" ~n:8 ~m:16 ~seed:1 ();
        job "E3" "token-multi" ~n:24 ~m:16 ~p_pred:0.25 ~param:2 ~seed:1 ();
        job "E4" "token-dd" ~n:8 ~m:12 ~p_pred:0.05 ~seed:1 ();
        job "E5" "token-vc" ~n:64 ~m:8 ~param:2 ~seed:1 ();
        job "E5" "token-dd" ~n:64 ~m:8 ~param:2 ~seed:1 ();
        job "E6" "adversary" ~n:8 ~m:16 ~p_pred:0.0 ~seed:0 ();
      ]
      @ List.map (fun algo -> e7_workload_job algo 1) e7_algos
      @ List.map (fun algo -> job "E7" algo ~n:6 ~m:10 ~seed:9 ()) e7_algos
      @ [
          job "E8" "token-dd" ~n:8 ~m:10 ~p_pred:0.05 ~seed:1 ();
          job "E8" "token-dd-par" ~n:8 ~m:10 ~p_pred:0.05 ~seed:1 ();
          job "E9" "token-vc" ~n:8 ~m:10 ~param:20 ~seed:1 ();
          job "E9" "token-dd" ~n:8 ~m:10 ~param:20 ~seed:1 ();
          job "E15" "token-vc" ~n:8 ~m:12 ~param:2 ~seed:0 ();
        ]
      @ arms "E16" [ "token-vc" ]
      @ arms "E17" ~p_pred:0.02 [ "token-vc"; "token-dd"; "token-multi"; "checker" ]
      @ [
          job "E18" "checker" ~n:8 ~m:20 ~seed:1 ();
          job "E18" "parallel" ~n:8 ~m:20 ~param:1 ~seed:1 ();
          job "E18" "parallel" ~n:8 ~m:20 ~param:4 ~seed:1 ();
        ]
      @ arms "E19" [ "token-vc"; "token-dd"; "token-multi" ]
      @ arms "E20" [ "token-vc" ]
      @ arms "E21" [ "token-vc"; "token-dd"; "checker" ]
      @ [
          job "E22" "token-vc" ~n:8 ~m:20 ~param:2010 ~seed:1 ();
          job "E22" "token-dd" ~n:8 ~m:20 ~param:2010 ~seed:1 ();
          job "E22" "checker" ~n:8 ~m:20 ~param:2010 ~seed:1 ();
          job "E22" "token-vc" ~n:8 ~m:20 ~param:2011 ~seed:1 ();
        ]
  | Full ->
      let sweep f xs = List.concat_map f xs in
      let per_seed f = List.map f seeds in
      sweep
        (fun n -> per_seed (fun seed -> job "E1" "token-vc" ~n ~m:20 ~seed ()))
        [ 2; 4; 8; 16; 24; 32 ]
      (* E2: the centralized checker and token-vc on the same runs. *)
      @ sweep
          (fun n ->
            sweep
              (fun algo -> per_seed (fun seed -> job "E2" algo ~n ~m:16 ~seed ()))
              [ "checker"; "token-vc" ])
          [ 2; 4; 8; 16; 24; 32 ]
      @ sweep
          (fun groups ->
            per_seed (fun seed ->
                job "E3" "token-multi" ~n:24 ~m:16 ~p_pred:0.25 ~param:groups
                  ~seed ()))
          [ 1; 2; 3; 4; 6; 8; 12 ]
      @ sweep
          (fun n ->
            per_seed (fun seed ->
                job "E4" "token-dd" ~n ~m:12 ~p_pred:0.05 ~seed ()))
          [ 4; 8; 16; 32; 64 ]
      @ sweep
          (fun width ->
            sweep
              (fun algo ->
                per_seed (fun seed ->
                    job "E5" algo ~n:64 ~m:8 ~param:width ~seed ()))
              [ "token-vc"; "token-dd" ])
          [ 2; 4; 8; 16; 32; 48; 64 ]
      @ List.map
          (fun (n, m) -> job "E6" "adversary" ~n ~m ~p_pred:0.0 ~seed:0 ())
          [ (2, 16); (4, 16); (8, 16); (16, 16); (16, 64); (32, 32); (64, 16) ]
      (* E7: every detector on each scenario workload, then on random
         runs at three predicate densities. *)
      @ sweep
          (fun i -> List.map (fun algo -> e7_workload_job algo i) e7_algos)
          (List.init (List.length (Workloads.all ~seed:2025L)) succ)
      @ sweep
          (fun p_pred ->
            List.map (fun algo -> job "E7" algo ~n:6 ~m:10 ~p_pred ~seed:9 ())
              e7_algos)
          [ 0.0; 0.3; 1.0 ]
      @ sweep
          (fun n ->
            sweep
              (fun algo ->
                per_seed (fun seed ->
                    job "E8" algo ~n ~m:10 ~p_pred:0.05 ~seed ()))
              [ "token-dd"; "token-dd-par" ])
          [ 4; 8; 16; 32; 64 ]
      @ sweep
          (fun drop_pct ->
            sweep
              (fun algo ->
                per_seed (fun seed ->
                    job "E9" algo ~n:8 ~m:10 ~param:drop_pct ~seed ()))
              [ "token-vc"; "token-dd" ])
          [ 10; 20; 30 ]
      (* E15: throughput of a fixed 24-session batch across domain
         counts. Every det metric is domain-count independent (and
         outcome="ok" asserts identity against a sequential reference);
         only wall_ns varies. *)
      @ List.map
          (fun d -> job "E15" "token-vc" ~n:8 ~m:12 ~param:d ~seed:0 ())
          [ 1; 2; 4; 8 ]
      (* E16: wire bits, hybrid delta (param=1) vs dense (param=0), per
         vector-clock algorithm x n. Equal-seed pairs differ ONLY in
         [bits] — the encoding changes no message counts and no RNG
         draws. token-dd is absent by design: its tags and snapshots
         already carry O(1) scalar clocks, there is nothing to delta. *)
      @ sweep
          (fun n ->
            sweep
              (fun algo ->
                sweep
                  (fun delta ->
                    per_seed (fun seed ->
                        job "E16" algo ~n ~m:20 ~param:delta ~seed ()))
                  [ 0; 1 ])
              [ "token-vc"; "token-multi"; "checker" ])
          [ 8; 16; 32 ]
      (* E17: computation slicing on a sparse-truth workload (p_pred =
         0.02 — most states are predicate-false, the regime slicing is
         for). Equal-seed pairs differ only in param: 1 detects on the
         slice (events/snapshots/work drop), 0 on the dense run; both
         arms report identical outcomes with byte-identical cuts (the
         sliced cut remapped to dense coordinates). *)
      @ sweep
          (fun n ->
            sweep
              (fun algo ->
                sweep
                  (fun slice ->
                    per_seed (fun seed ->
                        job "E17" algo ~n ~m:20 ~p_pred:0.02 ~param:slice
                          ~seed ()))
                  [ 0; 1 ])
              [ "token-vc"; "token-dd"; "token-dd-par"; "token-multi";
                "checker" ])
          [ 8; 16; 32 ]
      (* E17 dense-truth control: at p_pred = 0.3 every run DETECTS, so
         these rows pin actual cuts (spelled out in [outcome], dense
         coordinates) byte-identical between the arms and against the
         baseline — the sparse sweep above mostly ends in
         no-detection, where cut identity is vacuous. *)
      @ sweep
          (fun algo ->
            sweep
              (fun slice ->
                per_seed (fun seed ->
                    job "E17" algo ~n:8 ~m:20 ~p_pred:0.3 ~param:slice ~seed
                      ()))
              [ 0; 1 ])
          [ "token-vc"; "token-dd"; "token-dd-par"; "token-multi"; "checker" ]
      (* E18: parallel-checker crossover. Per n, one centralized
         checker reference row (param 0) plus the parallel checker at
         domain counts 1/2/4/8 (param = its own fan-out). Every row of
         a given n spells out the same cut — the determinism contract
         across domain counts AND against the centralized checker —
         and only wall_ns may vary with param. *)
      @ sweep
          (fun n ->
            job "E18" "checker" ~n ~m:20 ~seed:1 ()
            :: List.map
                 (fun d -> job "E18" "parallel" ~n ~m:20 ~param:d ~seed:1 ())
                 [ 1; 2; 4; 8 ])
          [ 8; 16; 32; 64; 128 ]
      (* E19: crash recovery. Per token algorithm x n, a fault-free
         reference row (param 0) and a restart row (param 1) where the
         monitor of process 0 crashes at t=2 and is restored at t=10
         from its last checkpoint, taken after every handled message.
         Both arms spell the cut out in [outcome], so the baseline pins
         the recovered run's first cut byte-identical to the fault-free
         reference. *)
      @ sweep
          (fun n ->
            sweep
              (fun algo ->
                List.map
                  (fun restart ->
                    job "E19" algo ~n ~m:20 ~param:restart ~seed:1 ())
                  [ 0; 1 ])
              [ "token-vc"; "token-dd"; "token-multi" ])
          [ 8; 16; 32 ]
      (* E20: always-on telemetry. Per n, a bare reference row (param
         0, the E1 workload) and a telemetry-attached row (param 1)
         whose timed run streams wcp-metrics/1 through a capacity-1
         ring tap. Both arms spell the cut out, every det metric is
         identical between them (the plane is invisible to the engine),
         and the attached arm additionally asserts that a second
         attached run reproduces the stream. *)
      @ sweep
          (fun n ->
            List.map
              (fun telemetry ->
                job "E20" "token-vc" ~n ~m:20 ~param:telemetry ~seed:1 ())
              [ 0; 1 ])
          [ 8; 16; 32 ]
      (* E21: binary trace store. Per algo family, both arms (param 0 =
         text/dense, param 1 = btrace/streamed) on the E1 workload over
         three seeds and at two larger sizes; the spelled-out cut pins
         the streamed replay byte-identical to the dense reference. One
         big streamed-only row detects over a >= 10^7-event btrace
         (2 * 16 * 320000 = 10.24M events): its decode_ns/peak_words
         are the bounded-memory evidence — the dense arm at that scale
         would hold every vector clock in memory. *)
      @ sweep
          (fun algo ->
            sweep
              (fun streamed ->
                per_seed (fun seed ->
                    job "E21" algo ~n:8 ~m:20 ~param:streamed ~seed ()))
              [ 0; 1 ]
            @ sweep
                (fun (n, m) ->
                  List.map
                    (fun streamed -> job "E21" algo ~n ~m ~param:streamed ~seed:1 ())
                    [ 0; 1 ])
                [ (8, 2000); (16, 8000) ])
          [ "token-vc"; "token-dd"; "checker" ]
      @ [ job "E21" "token-vc" ~n:16 ~m:320000 ~p_pred:0.001 ~param:1 ~seed:1 () ]
      (* E22: streaming detection service (param = sessions*1000 +
         domains*10 + mode). Cut rows per algo family pin the served
         result byte-identical to the offline streamed reference at two
         session/domain shapes (plus one JSONL-framing row); all their
         det metrics are shape-independent. The throughput gate row
         (8 sessions x 4 domains, n=32) is where perf-check's absolute
         events/sec floor applies, and the slow-client row (512-event
         ring behind a deliberately slowed worker) is where the sampled
         peak_words heap cap applies — the shed-to-disk evidence. *)
      @ sweep
          (fun algo ->
            List.map
              (fun param -> job "E22" algo ~n:8 ~m:20 ~param ~seed:1 ())
              [ 2010; 4020 ])
          [ "token-vc"; "token-dd"; "checker" ]
      @ [
          job "E22" "token-vc" ~n:8 ~m:20 ~param:2011 ~seed:1 ();
          job "E22" "token-vc" ~n:32 ~m:2500 ~p_pred:0.002 ~param:8040 ~seed:1 ();
          job "E22" "token-vc" ~n:8 ~m:20000 ~p_pred:0.01 ~param:1012 ~seed:1 ();
        ]

let run ?domains profile =
  Wcp_util.Parallel.map ?domains run_job (Array.of_list (jobs profile))

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

(* Bump on any change to the row shape or to what a det metric
   measures: parse_doc refuses a baseline of another schema, so a stale
   baseline fails loudly instead of drifting. *)
let schema = "wcp-bench/11"

let metrics_to_json r =
  let j = r.job in
  Json.Obj
    [
      ("experiment", Json.Str j.experiment);
      ("algo", Json.Str j.algo);
      ("n", Json.Int j.n);
      ("m", Json.Int j.m);
      ("p_pred", Json.Float j.p_pred);
      ("seed", Json.Int j.seed);
      ("param", Json.Int j.param);
      ("outcome", Json.Str r.outcome);
      ("det", Json.Obj r.det);
      ("wall", Json.Obj r.wall);
    ]

let metrics_of_json j =
  let open Json in
  let lane k =
    match member k j with Obj l -> l | _ -> error "%S is not an object" k
  in
  {
    job =
      {
        experiment = to_str (member "experiment" j);
        algo = to_str (member "algo" j);
        n = to_int (member "n" j);
        m = to_int (member "m" j);
        p_pred = to_float (member "p_pred" j);
        seed = to_int (member "seed" j);
        param = to_int (member "param" j);
      };
    outcome = to_str (member "outcome" j);
    det = lane "det";
    wall = lane "wall";
  }

let emit ~profile results =
  (* One record per line keeps committed baselines diffable. *)
  let b = Buffer.create 16384 in
  Printf.bprintf b "{\n  \"schema\": %s,\n  \"profile\": %s,\n"
    (Json.to_string (Json.Str schema))
    (Json.to_string (Json.Str (profile_name profile)));
  Printf.bprintf b "  \"jobs\": %d,\n  \"results\": [\n"
    (Array.length results);
  Array.iteri
    (fun i r ->
      Buffer.add_string b "    ";
      Buffer.add_string b (Json.to_string (metrics_to_json r));
      if i < Array.length results - 1 then Buffer.add_char b ',';
      Buffer.add_char b '\n')
    results;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let parse_doc s =
  let doc = Json.parse s in
  let got = Json.to_str (Json.member "schema" doc) in
  if got <> schema then
    Json.error "schema %S, expected %S" got schema;
  let profile = profile_of_name (Json.to_str (Json.member "profile" doc)) in
  let results =
    Array.of_list (List.map metrics_of_json (Json.to_list (Json.member "results" doc)))
  in
  (profile, results)

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let deterministic_equal a b =
  a.job = b.job && a.outcome = b.outcome && a.det = b.det

(* What moved between two runs of one job: the outcome, then each det
   name whose value differs or that only one side carries. *)
let drift b c =
  let show = function None -> "absent" | Some v -> Json.to_string v in
  let names =
    List.map fst b.det
    @ List.filter (fun k -> not (List.mem_assoc k b.det)) (List.map fst c.det)
  in
  (if b.outcome <> c.outcome then
     [ Printf.sprintf "outcome %S -> %S" b.outcome c.outcome ]
   else [])
  @ List.filter_map
      (fun k ->
        let bv = List.assoc_opt k b.det and cv = List.assoc_opt k c.det in
        if bv = cv then None
        else Some (Printf.sprintf "%s %s -> %s" k (show bv) (show cv)))
      names

(* Compare a fresh run against a committed baseline: every det metric
   must match exactly; wall time may regress at most [tolerance]
   (default 0.20) on each experiment's total, with a 10 ms absolute
   floor so scheduler noise on sub-millisecond experiments cannot trip
   the gate. Returns human-readable failure lines, empty on success.

   [subset] (default false) flips the coverage direction: instead of
   requiring every baseline job to be present in [current], it requires
   every current job to exist in the baseline — the `make bench-smoke`
   mode, where a small smoke run is checked against the committed full
   baseline. Wall totals are then restricted to the jobs the smoke run
   actually executed. *)
let wall_floor_ns = 10_000_000

let compare_runs ?(tolerance = 0.20) ?(subset = false) ~baseline ~current () =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let check b c =
    match drift b c with
    | [] -> ()
    | moved ->
        err "metrics drifted for %s: %s" (job_key b.job)
          (String.concat ", " moved)
  in
  let index results =
    let t = Hashtbl.create 64 in
    Array.iter (fun r -> Hashtbl.replace t (job_key r.job) r) results;
    t
  in
  let cur_tbl = index current in
  if subset then begin
    let base_tbl = index baseline in
    Array.iter
      (fun c ->
        match Hashtbl.find_opt base_tbl (job_key c.job) with
        | None -> err "job not in baseline: %s" (job_key c.job)
        | Some b -> check b c)
      current
  end
  else
    Array.iter
      (fun b ->
        match Hashtbl.find_opt cur_tbl (job_key b.job) with
        | None -> err "missing job: %s" (job_key b.job)
        | Some c -> check b c)
      baseline;
  (* Wall-clock: per-experiment totals, 20% headroom. In subset mode
     only the baseline jobs the current run re-ran count towards the
     baseline total, so the comparison stays apples-to-apples. *)
  let totals keep results =
    let t = Hashtbl.create 8 in
    Array.iter
      (fun r ->
        if keep r then
          let k = r.job.experiment in
          Hashtbl.replace t k
            (wall_int r "wall_ns" + Option.value ~default:0 (Hashtbl.find_opt t k)))
      results;
    t
  in
  let bt =
    totals
      (fun r -> (not subset) || Hashtbl.mem cur_tbl (job_key r.job))
      baseline
  and ct = totals (fun _ -> true) current in
  Hashtbl.iter
    (fun exp base ->
      match Hashtbl.find_opt ct exp with
      | None -> ()
      | Some cur ->
          if
            (* E22 boots a live multi-threaded server per job, so its
               wall clock is scheduler-dependent; it is gated
               absolutely instead (events/sec and peak-heap floors in
               bench/main.ml), not relatively against the baseline. *)
            exp <> "E22" && base > 0
            && float_of_int cur > (1.0 +. tolerance) *. float_of_int base
            && cur - base > wall_floor_ns
          then
            err "%s wall time regressed: %d ns -> %d ns (> %+.0f%%)" exp base
              cur (tolerance *. 100.0))
    bt;
  List.rev !errors
