(* Reproduction harness: regenerates every evaluation artefact of
   Garg & Chase (ICDCS 1995). The paper is analytical, so each
   "table" here is a measured check of a §3.4 / §4.4 / §5 complexity
   claim (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
   for paper-vs-measured commentary).

   Usage:  dune exec bench/main.exe            (all tables + micro)
           dune exec bench/main.exe -- tables  (E1-E8, E10-E12, E14-E22)
           dune exec bench/main.exe -- micro   (Bechamel E13 only)
           dune exec bench/main.exe -- e18     (one table; also e19-e22)

   E1-E8, E15-E19, E21 and E22 are rendered (Bench_tables) from the
   rows of the job runner behind the JSON mode, the same rows
   perf-check pins; E10-E12, E14 and E20 keep their own loops here.

   Machine-readable mode (see EXPERIMENTS.md and Bench_json):
           dune exec bench/main.exe -- json [--smoke] [--seq]
                                            [--domains K] [--out FILE]
           dune exec bench/main.exe -- perf-check BASELINE [CURRENT]
                                                  [--subset]
   (--subset: CURRENT may cover only part of BASELINE — the
   bench-smoke gate — but every job it does cover must match.)         *)

open Wcp_trace
open Wcp_sim
open Wcp_core
module B = Wcp_bench.Bench_json
module T = Wcp_bench.Bench_tables

let header title claim = print_string (T.header title claim)
let seeds = [ 1L; 2L; 3L ]
let mean_i = T.mean_i
let mean_f = T.mean_f

let random_comp ~n ~m ~p_pred ~seed =
  Generator.random
    ~params:{ Generator.n; sends_per_process = m; p_pred; p_recv = 0.5 }
    ~seed ()

(* Run the Full-profile jobs of one experiment, sequentially, and print
   its table. *)
let show exp =
  let rows =
    List.filter (fun j -> j.B.experiment = exp) (B.jobs B.Full)
    |> Array.of_list |> Array.map B.run_job
  in
  print_string (T.render exp rows)

(* ------------------------------------------------------------------ *)
(* E10: ablation — §3.5 group assignment                               *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header "E10 ablation: multi-token group assignment (design choice, §3.5)"
    "the paper leaves the monitor partition open; round-robin vs contiguous blocks";
  let n = 24 and m = 16 in
  Printf.printf "%4s %14s %14s %12s %12s
" "g" "rr-time" "blocks-time"
    "rr-hops" "blocks-hops";
  List.iter
    (fun groups ->
      let run assignment =
        List.map
          (fun seed ->
            let comp = random_comp ~n ~m ~p_pred:0.25 ~seed in
            let spec = Spec.all comp in
            let r = Token_multi.detect ~assignment ~groups ~seed comp spec in
            (r.sim_time, r.extras.token_hops))
          seeds
      in
      let rr = run Token_multi.Round_robin in
      let bl = run Token_multi.Blocks in
      Printf.printf "%4d %14.1f %14.1f %12d %12d
" groups
        (mean_f fst rr) (mean_f fst bl) (mean_i snd rr) (mean_i snd bl))
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* E11: ablation — network latency model                               *)
(* ------------------------------------------------------------------ *)

let e11 () =
  header "E11 ablation: latency model sensitivity"
    "verdicts are latency-independent; detection time scales with the model";
  let n = 12 and m = 12 in
  Printf.printf "%-22s %12s %12s %10s
" "latency" "vc-time" "dd-time" "agree";
  List.iter
    (fun (name, latency) ->
      let rows =
        List.map
          (fun seed ->
            let comp = random_comp ~n ~m ~p_pred:0.2 ~seed in
            let spec = Spec.make comp [| 0; 3; 6; 9 |] in
            let fifo ~src ~dst =
              src < n
              && (dst = Run_common.monitor_of ~n src
                 || dst = Run_common.extra_id ~n)
            in
            let network () = Network.create ~fifo ~latency () in
            let vc = Token_vc.detect ~network:(network ()) ~seed comp spec in
            let dd = Token_dd.detect ~network:(network ()) ~seed comp spec in
            let agree =
              Detection.outcome_equal vc.outcome (Oracle.first_cut comp spec)
              && Detection.outcome_equal
                   (Detection.project_outcome spec dd.outcome)
                   (Oracle.first_cut comp spec)
            in
            (vc.sim_time, dd.sim_time, agree))
          seeds
      in
      Printf.printf "%-22s %12.1f %12.1f %10s
" name
        (mean_f (fun (a, _, _) -> a) rows)
        (mean_f (fun (_, a, _) -> a) rows)
        (if List.for_all (fun (_, _, a) -> a) rows then "yes" else "NO"))
    [
      ("constant 1.0", Network.Constant 1.0);
      ("uniform [0.5,1.5)", Network.Uniform (0.5, 1.5));
      ("uniform [0.1,10)", Network.Uniform (0.1, 10.0));
      ("exponential mean 1", Network.Exponential 1.0);
      ("exponential mean 5", Network.Exponential 5.0);
    ]

(* ------------------------------------------------------------------ *)
(* E12: ablation — token starting monitor (§3.2)                       *)
(* ------------------------------------------------------------------ *)

let e12 () =
  header "E12 ablation: token starting position (§3.2)"
    "\"the token can start on any process\": verdicts identical, hop counts shift";
  let n = 16 and m = 12 in
  Printf.printf "%10s %10s %10s %10s
" "start" "vc-hops" "dd-hops" "agree";
  List.iter
    (fun start_at ->
      let rows =
        List.map
          (fun seed ->
            let comp = random_comp ~n ~m ~p_pred:0.3 ~seed in
            let spec = Spec.all comp in
            let vc = Token_vc.detect ~start_at ~seed comp spec in
            let dd = Token_dd.detect ~start_at ~seed comp spec in
            let agree =
              Detection.outcome_equal vc.outcome (Oracle.first_cut comp spec)
              && Detection.outcome_equal
                   (Detection.project_outcome spec dd.outcome)
                   (Oracle.first_cut comp spec)
            in
            (vc.extras.token_hops, dd.extras.token_hops, agree))
          seeds
      in
      Printf.printf "%10d %10d %10d %10s
" start_at
        (mean_i (fun (a, _, _) -> a) rows)
        (mean_i (fun (_, a, _) -> a) rows)
        (if List.for_all (fun (_, _, a) -> a) rows then "yes" else "NO"))
    [ 0; 5; 10; 15 ]

(* ------------------------------------------------------------------ *)
(* E14: tracing overhead (observability plane)                         *)
(* ------------------------------------------------------------------ *)

let e14 () =
  header "E14 tracing overhead: recorder attached vs detached"
    "claim: detached recording costs one branch per hook; attached stays small";
  let m = 20 in
  Printf.printf "%4s %12s %12s %8s %9s %8s\n" "n" "off-ns" "on-ns" "ratio"
    "events" "agree";
  List.iter
    (fun n ->
      (* Best-of-5 wall time: the E1 workload, with and without an
         attached recorder. The verdict must be identical either way
         (recording is invisible to the engine). *)
      let reps = 5 in
      let best f =
        let b = ref infinity in
        for _ = 1 to reps do
          let t0 = Unix.gettimeofday () in
          f ();
          let dt = Unix.gettimeofday () -. t0 in
          if dt < !b then b := dt
        done;
        !b
      in
      let comp = random_comp ~n ~m ~p_pred:0.3 ~seed:1L in
      let spec = Spec.all comp in
      let base = Token_vc.detect ~seed:1L comp spec in
      let off = best (fun () -> ignore (Token_vc.detect ~seed:1L comp spec)) in
      let events = ref 0 in
      let agree = ref true in
      let on =
        best (fun () ->
            let recorder = Wcp_obs.Recorder.create () in
            let r = Token_vc.detect ~recorder ~seed:1L comp spec in
            events := Wcp_obs.Recorder.emitted recorder;
            if not (Detection.outcome_equal r.outcome base.outcome) then
              agree := false)
      in
      Printf.printf "%4d %12.0f %12.0f %8.2f %9d %8s\n" n (off *. 1e9)
        (on *. 1e9)
        (on /. off)
        !events
        (if !agree then "yes" else "NO"))
    [ 2; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* E20: always-on telemetry overhead                                   *)
(* ------------------------------------------------------------------ *)

let e20 () =
  header "E20 always-on telemetry: capacity-1 ring + metrics stream vs bare"
    "claim: the metrics plane costs <= 5% over the recorder hooks at n=32 \
     and the stream is byte-deterministic";
  let m = 20 in
  Printf.printf "%4s %11s %11s %11s %7s %7s %6s %6s %6s\n" "n" "off-ns"
    "hooks-ns" "on-ns" "plane" "total" "lines" "agree" "deter";
  List.iter
    (fun n ->
      (* Three interleaved arms, best-of-20 each: bare; the recorder
         hooks alone (capacity-1 ring + no-op tap, i.e. what any
         attached consumer pays for event materialization — E14's
         number); and the full plane (telemetry aggregation streaming
         wcp-metrics/1 into a buffer). Interleaving means slow machine
         drift hits all arms equally; [Gc.minor] puts each rep in the
         same heap state. [plane] = on/hooks prices this PR's
         aggregation layer, [total] = on/off the whole plane including
         the hooks that predate it. *)
      let reps = 20 in
      let comp = random_comp ~n ~m ~p_pred:0.3 ~seed:1L in
      let spec = Spec.all comp in
      let base = Token_vc.detect ~seed:1L comp spec in
      let attached () =
        let buf = Buffer.create 4096 in
        let tel =
          Wcp_obs.Telemetry.create
            ~sink:(fun l ->
              Buffer.add_string buf l;
              Buffer.add_char buf '\n')
            ()
        in
        let recorder = Wcp_obs.Recorder.create ~capacity:1 () in
        Wcp_obs.Telemetry.attach tel recorder;
        let r = Token_vc.detect ~recorder ~seed:1L comp spec in
        Wcp_obs.Telemetry.close tel;
        (r, Buffer.contents buf)
      in
      let agree = ref true in
      let stream = ref "" in
      let off = ref infinity and hooks = ref infinity and on = ref infinity in
      let time f b =
        Gc.minor ();
        let t0 = Unix.gettimeofday () in
        f ();
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !b then b := dt
      in
      for _ = 1 to reps do
        time (fun () -> ignore (Token_vc.detect ~seed:1L comp spec)) off;
        time
          (fun () ->
            let recorder = Wcp_obs.Recorder.create ~capacity:1 () in
            Wcp_obs.Recorder.attach_tap recorder
              (fun (_ : Wcp_obs.Event.t) -> ());
            ignore (Token_vc.detect ~recorder ~seed:1L comp spec))
          hooks;
        time
          (fun () ->
            let r, s = attached () in
            stream := s;
            if not (Detection.outcome_equal r.outcome base.outcome) then
              agree := false)
          on
      done;
      let off = !off and hooks = !hooks and on = !on in
      let lines = String.split_on_char '\n' !stream |> List.length |> pred in
      (* Alloc-dependent phase lines aside, the stream must reproduce
         exactly; compare decoded lines with alloc_bytes zeroed (the
         cross-process byte-for-byte check is `make telemetry-check`). *)
      let norm s =
        match Wcp_obs.Telemetry.decode s with
        | Result.Error _ -> None
        | Result.Ok ls ->
            Some
              (List.map
                 (function
                   | Wcp_obs.Telemetry.Phase p ->
                       Wcp_obs.Telemetry.Phase { p with alloc_bytes = 0 }
                   | l -> l)
                 ls)
      in
      let _, s2 = attached () in
      let deterministic = norm !stream <> None && norm !stream = norm s2 in
      Printf.printf "%4d %11.0f %11.0f %11.0f %7.2f %7.2f %6d %6s %6s\n" n
        (off *. 1e9) (hooks *. 1e9) (on *. 1e9) (on /. hooks) (on /. off)
        lines
        (if !agree then "yes" else "NO")
        (if deterministic then "yes" else "NO"))
    [ 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* E13: Bechamel micro-benchmarks                                      *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "E13 CPU micro-benchmarks (Bechamel)"
    "wall-clock cost of one full detection run per algorithm (fixed workload)";
  let open Bechamel in
  let comp = random_comp ~n:8 ~m:12 ~p_pred:0.3 ~seed:5L in
  let spec = Spec.make comp [| 0; 2; 4; 6 |] in
  let mk name f = Test.make ~name (Staged.stage f) in
  let test =
    Test.make_grouped ~name:"detect"
      ([ mk "oracle" (fun () -> ignore (Oracle.first_cut comp spec)) ]
      @ List.map
          (fun a ->
            mk (Algo.name a) (fun () ->
                ignore
                  (Algo.run a ~domains:4 ~options:Detection.default_options
                     ~seed:5L comp spec)))
          Algo.all
      @ [
          (* The pooled fan-out itself: with the scoped pool warm this is
             dispatch + barrier cost, no domain spawns (satellite of the
             E18 work; Parallel.spawns stays flat across iterations). *)
          mk "parallel-map d=4 (pooled)" (fun () ->
              ignore
                (Wcp_util.Parallel.map ~domains:4
                   (fun x -> x * x)
                   (Array.init 256 Fun.id)));
          mk "lower-bound n=16 m=16" (fun () ->
              let world, _ = Wcp_lowerbound.Adversary.make ~n:16 ~m:16 in
              ignore (Wcp_lowerbound.Detector.run world));
        ])
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _instance tbl ->
      let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) tbl [] in
      List.iter
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-32s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-32s (no estimate)\n" name)
        (List.sort compare rows))
    results

let tables () =
  List.iter show [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8" ];
  e10 ();
  e11 ();
  e12 ();
  e14 ();
  List.iter show [ "E15"; "E16"; "E17"; "E18"; "E19" ];
  e20 ();
  List.iter show [ "E21"; "E22" ]

(* ------------------------------------------------------------------ *)
(* Machine-readable harness (JSON) and the perf-regression gate        *)
(* ------------------------------------------------------------------ *)

let json_mode args =
  let profile = ref B.Full in
  let domains = ref None in
  let out = ref None in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        profile := B.Smoke;
        parse rest
    | "--seq" :: rest ->
        domains := Some 1;
        parse rest
    | "--domains" :: k :: rest ->
        domains := Some (int_of_string k);
        parse rest
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | a :: _ -> failwith ("json: unknown argument " ^ a)
  in
  parse args;
  let results = B.run ?domains:!domains !profile in
  let doc = B.emit ~profile:!profile results in
  match !out with
  | None -> print_string doc
  | Some f ->
      let oc = open_out f in
      output_string oc doc;
      close_out oc;
      Printf.printf "wrote %d results to %s\n" (Array.length results) f

let read_file f =
  match open_in_bin f with
  | exception Sys_error msg ->
      Printf.eprintf "perf-check: cannot read baseline: %s\n" msg;
      Printf.eprintf "  (generate one with: make bench-json)\n";
      exit 1
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s

let parse_file f =
  match B.parse_doc (read_file f) with
  | exception Wcp_obs.Export.Json.Error msg ->
      Printf.eprintf "perf-check: %s is not a wcp-bench document (%s)\n" f msg;
      exit 1
  | doc -> doc

(* E22 absolute service gates, applied to whichever E22 rows the
   current run actually executed (the smoke profile carries only the
   cheap cut rows, so they are vacuous under `make bench-smoke`):
   the throughput row (>= 8 sessions at n >= 32) must sustain at least
   [e22_min_eps] aggregate ingest events/sec, and the slow-client arm
   (mode 2) must hold its sampled heap growth under
   [e22_slow_peak_cap_words] — shedding to disk is the whole point. *)
let e22_min_eps = 1.0e6
let e22_slow_peak_cap_words = 8_000_000

let e22_gates current =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  Array.iter
    (fun r ->
      let j = r.B.job in
      if j.experiment = "E22" then begin
        let sessions = j.param / 1000 and mode = j.param mod 10 in
        let eps = B.wall_float r "events_per_sec" in
        if mode <> 2 && sessions >= 8 && j.n >= 32 && eps < e22_min_eps then
          err "E22 throughput gate: %.0f events/sec < %.0f (%s)" eps
            e22_min_eps (B.job_key j);
        if mode = 2 then
          let peak = B.wall_int r "peak_words" in
          if peak > e22_slow_peak_cap_words then
            err "E22 slow-client heap gate: peak %d words > %d (%s)" peak
              e22_slow_peak_cap_words (B.job_key j)
      end)
    current;
  List.rev !errors

let perf_check args =
  let subset = List.mem "--subset" args in
  let args = List.filter (fun a -> a <> "--subset") args in
  let baseline_file, current =
    match args with
    | [ b ] ->
        (* No current file: re-run the baseline's profile now. *)
        let profile, _ = parse_file b in
        (b, B.run profile)
    | [ b; c ] ->
        let _, current = parse_file c in
        (b, current)
    | _ -> failwith "usage: perf-check BASELINE [CURRENT] [--subset]"
  in
  let _, baseline = parse_file baseline_file in
  let errors =
    B.compare_runs ~subset ~baseline ~current ()
    @ e22_gates current
  in
  match errors with
  | [] ->
      Printf.printf "perf-check: OK (%d jobs match %s%s)\n"
        (Array.length (if subset then current else baseline))
        baseline_file
        (if subset then ", subset mode" else "")
  | errors ->
      List.iter (fun e -> Printf.eprintf "perf-check: %s\n" e) errors;
      exit 1

let () =
  let argv = Array.to_list Sys.argv in
  match argv with
  | _ :: "tables" :: _ -> tables ()
  | _ :: "e18" :: _ -> show "E18"
  | _ :: "e19" :: _ -> show "E19"
  | _ :: "e20" :: _ -> e20 ()
  | _ :: "e21" :: _ -> show "E21"
  | _ :: "e22" :: _ -> show "E22"
  | _ :: "micro" :: _ -> micro ()
  | _ :: "json" :: rest -> json_mode rest
  | _ :: "perf-check" :: rest -> perf_check rest
  | _ ->
      tables ();
      micro ()
