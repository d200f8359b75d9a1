(* Reproduction harness: regenerates every evaluation artefact of
   Garg & Chase (ICDCS 1995). The paper is analytical, so each
   "table" here is a measured check of a §3.4 / §4.4 / §5 complexity
   claim (see DESIGN.md §4 for the experiment index E1-E14 and
   EXPERIMENTS.md for paper-vs-measured commentary).

   Usage:  dune exec bench/main.exe            (all experiments + micro)
           dune exec bench/main.exe -- tables  (E1-E8 only)
           dune exec bench/main.exe -- micro   (Bechamel E13 only)

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

let line = String.make 78 '-'

let header title claim =
  Printf.printf "\n%s\n%s\n%s\n%s\n" line title claim line

let seeds = [ 1L; 2L; 3L ]

let mean_i xs = List.fold_left ( + ) 0 xs / List.length xs

let mean_f xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let random_comp ~n ~m ~p_pred ~seed =
  Generator.random
    ~params:{ Generator.n; sends_per_process = m; p_pred; p_recv = 0.5 }
    ~seed ()

(* Sum of a per-process stat over the monitor ids. *)
let monitor_sum stats ~n f =
  let acc = ref 0 in
  for p = 0 to n - 1 do
    acc := !acc + f stats (Run_common.monitor_of ~n p)
  done;
  !acc

let monitor_max stats ~n f =
  let acc = ref 0 in
  for p = 0 to n - 1 do
    acc := max !acc (f stats (Run_common.monitor_of ~n p))
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* E1: §3.4 scaling of the vector-clock token algorithm                *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1  token-vc scaling (paper §3.4)"
    "claim: <= 2nm monitor messages; O(n^2 m) total work/bits; O(nm) per process";
  Printf.printf "%4s %4s %7s %7s %8s %8s %9s %10s %9s\n" "n" "m" "states"
    "hops" "mon-msgs" "2nm" "work" "work/n2m" "max-work";
  List.iter
    (fun n ->
      let m = 20 in
      let rows =
        List.map
          (fun seed ->
            let comp = random_comp ~n ~m ~p_pred:0.3 ~seed in
            let spec = Spec.all comp in
            let r = Token_vc.detect ~seed comp spec in
            let mm = Computation.max_events_per_process comp in
            let work = monitor_sum r.stats ~n Stats.work_of in
            ( Computation.total_states comp,
              r.extras.token_hops,
              r.extras.token_hops + r.extras.snapshots,
              2 * n * (mm + 1),
              work,
              float_of_int work /. float_of_int (n * n * (mm + 1)),
              monitor_max r.stats ~n Stats.work_of ))
          seeds
      in
      let g f = mean_i (List.map f rows) in
      Printf.printf "%4d %4d %7d %7d %8d %8d %9d %10.3f %9d\n" n m
        (g (fun (a, _, _, _, _, _, _) -> a))
        (g (fun (_, a, _, _, _, _, _) -> a))
        (g (fun (_, _, a, _, _, _, _) -> a))
        (g (fun (_, _, _, a, _, _, _) -> a))
        (g (fun (_, _, _, _, a, _, _) -> a))
        (mean_f (List.map (fun (_, _, _, _, _, a, _) -> a) rows))
        (g (fun (_, _, _, _, _, _, a) -> a)))
    [ 2; 4; 8; 16; 24; 32 ]

(* ------------------------------------------------------------------ *)
(* E2: checker concentrates O(n^2 m) space; token-vc spreads O(nm)     *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2  space and work skew: checker [7] vs token-vc (paper §3.4)"
    "claim: checker needs O(n^2 m) words on ONE process; token-vc O(nm) each";
  Printf.printf "%4s %12s %12s %7s %14s %14s\n" "n" "chk-space" "tok-space"
    "ratio" "chk-max-work" "tok-max-work";
  List.iter
    (fun n ->
      let m = 16 in
      let rows =
        List.map
          (fun seed ->
            let comp = random_comp ~n ~m ~p_pred:0.3 ~seed in
            let spec = Spec.all comp in
            let c = Checker_centralized.detect ~seed comp spec in
            let t = Token_vc.detect ~seed comp spec in
            let chk_space =
              Stats.space_high_water c.stats (Run_common.extra_id ~n)
            in
            let tok_space = monitor_max t.stats ~n Stats.space_high_water in
            ( chk_space,
              tok_space,
              Stats.work_of c.stats (Run_common.extra_id ~n),
              monitor_max t.stats ~n Stats.work_of ))
          seeds
      in
      let g f = mean_i (List.map f rows) in
      let cs = g (fun (a, _, _, _) -> a) and ts = g (fun (_, a, _, _) -> a) in
      Printf.printf "%4d %12d %12d %7.2f %14d %14d\n" n cs ts
        (float_of_int cs /. float_of_int (max 1 ts))
        (g (fun (_, _, a, _) -> a))
        (g (fun (_, _, _, a) -> a)))
    [ 2; 4; 8; 16; 24; 32 ]

(* ------------------------------------------------------------------ *)
(* E3: multi-token parallelism (§3.5)                                  *)
(* ------------------------------------------------------------------ *)

let e3 () =
  header "E3  multi-token parallelism (paper §3.5)"
    "claim: g tokens work concurrently; detection (simulated) time drops with g";
  let n = 24 and m = 16 in
  Printf.printf "%4s %10s %8s %8s %9s\n" "g" "sim-time" "hops" "merges" "msgs";
  List.iter
    (fun groups ->
      let rows =
        List.map
          (fun seed ->
            let comp = random_comp ~n ~m ~p_pred:0.25 ~seed in
            let spec = Spec.all comp in
            let r = Token_multi.detect ~groups ~seed comp spec in
            (r.sim_time, r.extras.token_hops, r.extras.merges,
             Stats.total_sent r.stats))
          seeds
      in
      Printf.printf "%4d %10.1f %8d %8d %9d\n" groups
        (mean_f (List.map (fun (a, _, _, _) -> a) rows))
        (mean_i (List.map (fun (_, a, _, _) -> a) rows))
        (mean_i (List.map (fun (_, _, a, _) -> a) rows))
        (mean_i (List.map (fun (_, _, _, a) -> a) rows)))
    [ 1; 2; 3; 4; 6; 8; 12 ]

(* ------------------------------------------------------------------ *)
(* E4: §4.4 scaling of the direct-dependence algorithm                 *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header "E4  token-dd scaling (paper §4.4)"
    "claim: <= 3Nm monitor messages, O(Nm) bits, O(m) work & space per process";
  Printf.printf "%4s %4s %7s %7s %8s %8s %9s %9s %9s\n" "N" "m" "polls"
    "hops" "mon-msgs" "3Nm" "bits" "max-work" "max-spc";
  List.iter
    (fun n ->
      let m = 12 in
      let rows =
        List.map
          (fun seed ->
            (* Sparse predicates put the first satisfying cut late in
               the run, forcing the chain through many eliminations --
               the regime the §4.4 bounds are about. *)
            let comp = random_comp ~n ~m ~p_pred:0.05 ~seed in
            let spec =
              Spec.make comp [| 0; n / 2 |] (* small n, large N: §4's regime *)
            in
            let r = Token_dd.detect ~seed comp spec in
            let mm = Computation.max_events_per_process comp in
            ( r.extras.polls,
              r.extras.token_hops,
              (2 * r.extras.polls) + r.extras.token_hops,
              3 * n * (mm + 1),
              monitor_sum r.stats ~n Stats.bits,
              monitor_max r.stats ~n Stats.work_of,
              monitor_max r.stats ~n Stats.space_high_water ))
          seeds
      in
      let g f = mean_i (List.map f rows) in
      Printf.printf "%4d %4d %7d %7d %8d %8d %9d %9d %9d\n" n m
        (g (fun (a, _, _, _, _, _, _) -> a))
        (g (fun (_, a, _, _, _, _, _) -> a))
        (g (fun (_, _, a, _, _, _, _) -> a))
        (g (fun (_, _, _, a, _, _, _) -> a))
        (g (fun (_, _, _, _, a, _, _) -> a))
        (g (fun (_, _, _, _, _, a, _) -> a))
        (g (fun (_, _, _, _, _, _, a) -> a)))
    [ 4; 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* E5: crossover between the two algorithms (§1, §4, §6)               *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5  vc vs dd crossover (paper §1/§4/§6)"
    "claim: dd's O(Nm) beats vc's O(n^2 m) once n^2 >> N  (here N = 64, so n ~ 8)";
  let n_total = 64 and m = 8 in
  Printf.printf "%4s %12s %12s %10s %12s %12s\n" "n" "vc-bits" "dd-bits"
    "winner" "vc-work" "dd-work";
  List.iter
    (fun width ->
      let rows =
        List.map
          (fun seed ->
            let comp = random_comp ~n:n_total ~m ~p_pred:0.3 ~seed in
            let rng = Wcp_util.Rng.create seed in
            let procs = Generator.random_procs rng ~n:n_total ~width in
            let spec = Spec.make comp procs in
            let vc = Token_vc.detect ~seed comp spec in
            let dd = Token_dd.detect ~seed comp spec in
            (* Monitoring traffic each algorithm adds: bits sent by the
               monitors plus the applications' snapshot bits. *)
            let mon_bits (r : Detection.result) =
              monitor_sum r.stats ~n:n_total Stats.bits
            in
            let snap_bits_vc =
              vc.Detection.extras.Detection.snapshots * 32 * (width + 1)
            in
            let snap_bits_dd =
              (dd.Detection.extras.Detection.snapshots * 32)
              + (2 * 32 * Snapshot.total_dd_deps comp spec)
            in
            ( mon_bits vc + snap_bits_vc,
              mon_bits dd + snap_bits_dd,
              monitor_sum vc.Detection.stats ~n:n_total Stats.work_of,
              monitor_sum dd.Detection.stats ~n:n_total Stats.work_of ))
          seeds
      in
      let g f = mean_i (List.map f rows) in
      let vb = g (fun (a, _, _, _) -> a) and db = g (fun (_, a, _, _) -> a) in
      Printf.printf "%4d %12d %12d %10s %12d %12d\n" width vb db
        (if vb < db then "vc" else "dd")
        (g (fun (_, _, a, _) -> a))
        (g (fun (_, _, _, a) -> a)))
    [ 2; 4; 8; 16; 32; 48; 64 ]

(* ------------------------------------------------------------------ *)
(* E6: the Ω(nm) lower bound (§5)                                      *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header "E6  adversary lower bound (paper §5, Theorem 5.1)"
    "claim: any S1/S2 algorithm is forced through >= nm - n sequential deletions";
  Printf.printf "%4s %5s %9s %11s %9s %7s\n" "n" "m" "rounds" "deletions"
    "nm-n" "ratio";
  List.iter
    (fun (n, m) ->
      let world, _ = Wcp_lowerbound.Adversary.make ~n ~m in
      let answer, trace = Wcp_lowerbound.Detector.run world in
      assert (answer = Wcp_lowerbound.Detector.No_antichain);
      let bound = (n * m) - n in
      Printf.printf "%4d %5d %9d %11d %9d %7.3f\n" n m
        trace.Wcp_lowerbound.Detector.rounds
        trace.Wcp_lowerbound.Detector.deletions bound
        (float_of_int trace.Wcp_lowerbound.Detector.deletions
        /. float_of_int (max 1 bound)))
    [ (2, 16); (4, 16); (8, 16); (16, 16); (16, 64); (32, 32); (64, 16) ]

(* ------------------------------------------------------------------ *)
(* E7: agreement matrix (Figs 2-5, Table 1)                            *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7  agreement matrix: all detectors vs the oracle (Figs 2-5)"
    "claim: every algorithm halts with the FIRST cut satisfying the WCP";
  Printf.printf "%-22s %8s %8s %8s %8s %8s %8s\n" "workload" "outcome"
    "checker" "tok-vc" "multi" "tok-dd" "dd-par";
  let check name comp spec seed =
    let expected = Oracle.first_cut comp spec in
    let ok a =
      let r = Algo.run a ~options:Detection.default_options ~seed comp spec in
      if Detection.outcome_equal (Algo.spec_outcome a spec r) expected then "ok"
      else "FAIL"
    in
    Printf.printf "%-22s %8s %8s %8s %8s %8s %8s\n" name
      (match expected with
      | Detection.Detected _ -> "detect"
      | Detection.No_detection -> "none"
      | Detection.Undetectable_crashed _ -> "crash")
      (ok Algo.Checker) (ok Algo.Token_vc) (ok Algo.Multi_token)
      (ok Algo.Token_dd) (ok Algo.Token_dd_par)
  in
  List.iter
    (fun w ->
      let spec = Spec.make w.Workloads.comp w.Workloads.procs in
      check w.Workloads.name w.Workloads.comp spec 11L)
    (Workloads.all ~seed:2025L);
  List.iter
    (fun (p_pred, tag) ->
      let comp = random_comp ~n:6 ~m:10 ~p_pred ~seed:9L in
      check (Printf.sprintf "random p=%s" tag) comp (Spec.all comp) 9L)
    [ (0.0, "0"); (0.3, "0.3"); (1.0, "1") ]

(* ------------------------------------------------------------------ *)
(* E8: parallel direct-dependence variant (§4.5)                       *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8  prefetching dd variant (paper §4.5)"
    "claim: overlapping candidate search with the token shrinks detection time";
  Printf.printf "%4s %12s %12s %9s %10s %10s\n" "N" "seq-time" "par-time"
    "speedup" "seq-polls" "par-polls";
  List.iter
    (fun n ->
      let m = 10 in
      let rows =
        List.map
          (fun seed ->
            let comp = random_comp ~n ~m ~p_pred:0.05 ~seed in
            let spec = Spec.make comp [| 0; n / 2 |] in
            let s = Token_dd.detect ~seed comp spec in
            let p = Token_dd.detect ~parallel:true ~seed comp spec in
            (s.sim_time, p.sim_time, s.extras.polls, p.extras.polls))
          seeds
      in
      let st = mean_f (List.map (fun (a, _, _, _) -> a) rows) in
      let pt = mean_f (List.map (fun (_, a, _, _) -> a) rows) in
      Printf.printf "%4d %12.1f %12.1f %9.2f %10d %10d\n" n st pt (st /. pt)
        (mean_i (List.map (fun (_, _, a, _) -> a) rows))
        (mean_i (List.map (fun (_, _, _, a) -> a) rows)))
    [ 4; 8; 16; 32; 64 ]

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
        (mean_f (List.map fst rr))
        (mean_f (List.map fst bl))
        (mean_i (List.map snd rr))
        (mean_i (List.map snd bl)))
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
        (mean_f (List.map (fun (a, _, _) -> a) rows))
        (mean_f (List.map (fun (_, a, _) -> a) rows))
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
        (mean_i (List.map (fun (a, _, _) -> a) rows))
        (mean_i (List.map (fun (_, a, _) -> a) rows))
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
(* E15: multicore throughput of the bench harness itself               *)
(* ------------------------------------------------------------------ *)

let e15 () =
  header "E15 multicore throughput: detection sessions/sec vs domains"
    "claim: Parallel.map output is byte-identical at any domain count; wall drops";
  let open Wcp_bench.Bench_json in
  Printf.printf "%8s %10s %12s %9s %10s\n" "domains" "sessions" "wall-ms"
    "sess/s" "identical";
  (* Rows must agree on every deterministic field whatever the domain
     count; normalize away the param (the domain count itself). *)
  let norm r =
    let r = strip_timing r in
    { r with job = { r.job with param = 0 } }
  in
  let base = ref None in
  List.iter
    (fun d ->
      let r =
        run_job
          {
            experiment = "E15";
            algo = "token-vc";
            n = 8;
            m = 12;
            p_pred = 0.3;
            seed = 0;
            param = d;
          }
      in
      if !base = None then base := Some (norm r);
      let identical = r.outcome = "ok" && !base = Some (norm r) in
      let wall_s = float_of_int r.wall_ns /. 1e9 in
      Printf.printf "%8d %10d %12.1f %9.0f %10s\n" d e15_sessions
        (wall_s *. 1e3)
        (float_of_int e15_sessions /. wall_s)
        (if identical then "yes" else "NO"))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* E16: wire bits, hybrid delta encoding vs dense                      *)
(* ------------------------------------------------------------------ *)

let e16 () =
  header "E16 delta encoding: wire bits vs the dense baseline"
    "claim: sparse clock updates make delta+gating cut bits >= 2x at n=32; cuts identical";
  let open Wcp_bench.Bench_json in
  Printf.printf "%-12s %4s %12s %12s %7s %9s\n" "algo" "n" "dense-bits"
    "delta-bits" "ratio" "same-cut";
  List.iter
    (fun algo ->
      List.iter
        (fun n ->
          let run param seed =
            run_job
              { experiment = "E16"; algo; n; m = 20; p_pred = 0.3; seed; param }
          in
          let rows = List.map (fun s -> (run 0 s, run 1 s)) [ 1; 2; 3 ] in
          let dense = mean_i (List.map (fun (d, _) -> d.bits) rows) in
          let delta = mean_i (List.map (fun (_, d) -> d.bits) rows) in
          (* Same detected cut: every deterministic field except bits
             (and the delta-flag param) must agree between the arms. *)
          let norm r =
            { r with bits = 0; job = { r.job with param = 0 } }
          in
          let same =
            List.for_all
              (fun (d0, d1) -> deterministic_equal (norm d0) (norm d1))
              rows
          in
          Printf.printf "%-12s %4d %12d %12d %7.2f %9s\n" algo n dense delta
            (float_of_int dense /. float_of_int (max 1 delta))
            (if same then "yes" else "NO"))
        [ 8; 16; 32 ])
    [ "token-vc"; "token-multi"; "checker" ]

(* ------------------------------------------------------------------ *)
(* E17: computation slicing, sparse-truth sweep                        *)
(* ------------------------------------------------------------------ *)

let e17 () =
  header "E17 computation slicing: detect on the slice vs the dense run"
    "claim: sparse truth (p_pred=0.02) cuts events examined >= 2x at n=32; \
     cuts identical";
  let open Wcp_bench.Bench_json in
  Printf.printf "%-12s %4s %11s %12s %12s %7s %9s\n" "algo" "n" "slice-state"
    "dense-event" "slice-event" "ratio" "same-cut";
  List.iter
    (fun algo ->
      List.iter
        (fun n ->
          let run param seed =
            run_job
              {
                experiment = "E17";
                algo;
                n;
                m = 20;
                p_pred = 0.02;
                seed;
                param;
              }
          in
          let rows = List.map (fun s -> (run 0 s, run 1 s)) [ 1; 2; 3 ] in
          let dense = mean_i (List.map (fun (d, _) -> d.events) rows) in
          let sliced = mean_i (List.map (fun (_, s) -> s.events) rows) in
          let sstates = mean_i (List.map (fun (_, s) -> s.slice_states) rows) in
          (* Identical verdicts: the sliced arm's remapped cut (and every
             deterministic field that is a function of it — outcome,
             states examined per the slice's own accounting aside) must
             agree with the dense arm's. Everything that legitimately
             shrinks on the slice is zeroed before the comparison. *)
          let norm r =
            {
              r with
              states = 0;
              hops = 0;
              polls = 0;
              snapshots = 0;
              merges = 0;
              work = 0;
              max_work = 0;
              messages = 0;
              bits = 0;
              events = 0;
              sim_time = 0.;
              trace_events = 0;
              eliminations = 0;
              hop_p50 = 0.;
              hop_p95 = 0.;
              hop_max = 0.;
              elims_per_hop_p50 = 0.;
              elims_per_hop_p95 = 0.;
              elims_per_hop_max = 0.;
              slice_states = 0;
              job = { r.job with param = 0 };
            }
          in
          let same =
            List.for_all
              (fun (d0, d1) ->
                deterministic_equal (norm d0) (norm d1)
                && d0.outcome = d1.outcome)
              rows
          in
          Printf.printf "%-12s %4d %11d %12d %12d %7.2f %9s\n" algo n sstates
            dense sliced
            (float_of_int dense /. float_of_int (max 1 sliced))
            (if same then "yes" else "NO"))
        [ 8; 16; 32 ])
    [ "token-vc"; "token-dd"; "token-dd-par"; "token-multi"; "checker" ]

(* ------------------------------------------------------------------ *)
(* E18: domain-parallel checker crossover                              *)
(* ------------------------------------------------------------------ *)

let e18 () =
  header "E18 domain-parallel checker: wall-clock crossover vs centralized"
    "claim: byte-identical cuts at every domain count; parallel wins at n>=64";
  let open Wcp_bench.Bench_json in
  Printf.printf "%5s %11s %9s %9s %9s %9s %8s %7s %9s\n" "n" "checker-ms"
    "d=1-ms" "d=2-ms" "d=4-ms" "d=8-ms" "speedup" "rounds" "same-cut";
  List.iter
    (fun n ->
      let run algo param =
        run_job
          { experiment = "E18"; algo; n; m = 20; p_pred = 0.3; seed = 1; param }
      in
      let ck = run "checker" 0 in
      let par = List.map (run "parallel") [ 1; 2; 4; 8 ] in
      (* The determinism contract, asserted per row: every domain count
         spells out the same cut as the centralized checker (outcome
         strings are byte-identical), and the round shape — rounds,
         frontier, items, plus every other deterministic field — is
         domain-count independent. *)
      let norm r = { (strip_timing r) with job = { r.job with param = 0 } } in
      let p1 = List.hd par in
      let same =
        List.for_all (fun p -> p.outcome = ck.outcome && norm p = norm p1) par
      in
      let ms r = float_of_int r.wall_ns /. 1e6 in
      let best = List.fold_left (fun acc p -> min acc (ms p)) infinity par in
      Printf.printf "%5d %11.2f %9.2f %9.2f %9.2f %9.2f %8.2f %7d %9s\n" n
        (ms ck)
        (ms (List.nth par 0))
        (ms (List.nth par 1))
        (ms (List.nth par 2))
        (ms (List.nth par 3))
        (ms ck /. best) p1.par_rounds
        (if same then "yes" else "NO"))
    [ 8; 16; 32; 64; 128 ]

(* ------------------------------------------------------------------ *)
(* E19: crash recovery, restart arm vs fault-free reference            *)
(* ------------------------------------------------------------------ *)

let e19 () =
  header "E19 crash recovery: mid-protocol monitor restart vs fault-free run"
    "claim: the recovered run's first cut is byte-identical to the \
     fault-free oracle for every token algorithm";
  let open Wcp_bench.Bench_json in
  Printf.printf "%-12s %4s %8s %8s %9s %9s %8s %9s\n" "algo" "n" "ref-t"
    "rec-t" "rec-lat" "replayed" "retx" "same-cut";
  List.iter
    (fun algo ->
      List.iter
        (fun n ->
          let run param =
            run_job
              {
                experiment = "E19";
                algo;
                n;
                m = 20;
                p_pred = 0.3;
                seed = 1;
                param;
              }
          in
          let reference = run 0 and recovered = run 1 in
          (* The recovery contract: the crash perturbs how hard the run
             is (messages, retransmits, sim time), never WHAT it
             detects — the spelled-out cuts must be byte-identical. *)
          let same = reference.outcome = recovered.outcome in
          Printf.printf "%-12s %4d %8.2f %8.2f %9.2f %9d %8d %9s\n" algo n
            reference.sim_time recovered.sim_time recovered.recovery_latency
            recovered.replayed recovered.retransmits
            (if same then "yes" else "NO"))
        [ 8; 16; 32 ])
    [ "token-vc"; "token-dd"; "token-multi" ]

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
(* E21: binary trace store, streamed replay vs dense text              *)
(* ------------------------------------------------------------------ *)

let e21 () =
  header "E21 binary trace store: mmap'd streamed replay vs dense text decode"
    "claim: btrace shrinks the on-disk trace and its decode time while \
     the streamed cut stays byte-identical to the dense reference";
  let open Wcp_bench.Bench_json in
  Printf.printf "%-10s %4s %6s %10s %10s %9s %9s %10s %9s\n" "algo" "n" "m"
    "txt-bytes" "bt-bytes" "txt-dec" "bt-dec" "peak-words" "same-cut";
  List.iter
    (fun algo ->
      List.iter
        (fun (n, m) ->
          let run param =
            run_job
              { experiment = "E21"; algo; n; m; p_pred = 0.3; seed = 1; param }
          in
          let dense = run 0 and streamed = run 1 in
          (* The format contract: both arms observe the same generated
             computation, one through the dense text decode and one
             through the mmap'd slice cursor, so the spelled-out first
             cut must be byte-identical. Per-run effort (events, work)
             legitimately shrinks on the streamed slice. *)
          let same = dense.outcome = streamed.outcome in
          let ms ns = float_of_int ns /. 1e6 in
          Printf.printf "%-10s %4d %6d %10d %10d %8.2fms %8.2fms %10d %9s\n"
            algo n m dense.trace_bytes streamed.trace_bytes
            (ms dense.decode_ns) (ms streamed.decode_ns) streamed.peak_words
            (if same then "yes" else "NO"))
        [ (8, 20); (8, 2000); (16, 8000) ])
    [ "token-vc"; "token-dd"; "checker" ]

(* ------------------------------------------------------------------ *)
(* E22: streaming detection service, sessions x domains x algo         *)
(* ------------------------------------------------------------------ *)

let e22 () =
  header "E22 streaming detection service: domain-sharded sessions over a socket"
    "claim: served cuts are byte-identical to offline streamed detection \
     while batched ingest sustains high aggregate events/sec and slow \
     clients shed to disk, not heap";
  let open Wcp_bench.Bench_json in
  Printf.printf "%-10s %4s %4s %6s %4s %6s %12s %9s %9s %10s %7s\n" "algo"
    "sess" "dom" "mode" "n" "m" "events/sec" "lat-p50" "lat-p95" "peak-words"
    "cut-ok";
  List.iter
    (fun (algo, n, m, p_pred, param) ->
      let r =
        run_job { experiment = "E22"; algo; n; m; p_pred; seed = 1; param }
      in
      let sessions = param / 1000
      and domains = param / 10 mod 100
      and mode = param mod 10 in
      let mode_name =
        match mode with 0 -> "bin" | 1 -> "jsonl" | _ -> "slow"
      in
      let ok =
        not
          (String.length r.outcome >= 8
          && String.sub r.outcome 0 8 = "mismatch")
      in
      let ms ns = float_of_int ns /. 1e6 in
      Printf.printf "%-10s %4d %4d %6s %4d %6d %12.0f %7.1fms %7.1fms %10d %7s\n"
        algo sessions domains mode_name n m r.events_per_sec (ms r.lat_p50_ns)
        (ms r.lat_p95_ns) r.peak_words
        (if ok then "yes" else "NO"))
    [
      ("token-vc", 8, 20, 0.3, 2010);
      ("token-dd", 8, 20, 0.3, 2010);
      ("checker", 8, 20, 0.3, 2010);
      ("token-vc", 8, 20, 0.3, 4020);
      ("token-vc", 8, 20, 0.3, 2011);
      ("token-vc", 32, 2500, 0.002, 8040);
      ("token-vc", 8, 20000, 0.01, 1012);
    ]

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
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e10 ();
  e11 ();
  e12 ();
  e14 ();
  e15 ();
  e16 ();
  e17 ();
  e18 ();
  e19 ();
  e20 ();
  e21 ();
  e22 ()

(* ------------------------------------------------------------------ *)
(* Machine-readable harness (JSON) and the perf-regression gate        *)
(* ------------------------------------------------------------------ *)

let json_mode args =
  let profile = ref Wcp_bench.Bench_json.Full in
  let domains = ref None in
  let out = ref None in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        profile := Wcp_bench.Bench_json.Smoke;
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
  let results = Wcp_bench.Bench_json.run ?domains:!domains !profile in
  let doc = Wcp_bench.Bench_json.emit ~profile:!profile results in
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
  match Wcp_bench.Bench_json.parse_doc (read_file f) with
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
      let open Wcp_bench.Bench_json in
      if r.job.experiment = "E22" then begin
        let sessions = r.job.param / 1000 and mode = r.job.param mod 10 in
        if mode <> 2 && sessions >= 8 && r.job.n >= 32
           && r.events_per_sec < e22_min_eps
        then
          err "E22 throughput gate: %.0f events/sec < %.0f (%s)"
            r.events_per_sec e22_min_eps
            (Wcp_bench.Bench_json.job_key r.job);
        if mode = 2 && r.peak_words > e22_slow_peak_cap_words then
          err "E22 slow-client heap gate: peak %d words > %d (%s)"
            r.peak_words e22_slow_peak_cap_words
            (Wcp_bench.Bench_json.job_key r.job)
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
        (b, Wcp_bench.Bench_json.run profile)
    | [ b; c ] ->
        let _, current = parse_file c in
        (b, current)
    | _ -> failwith "usage: perf-check BASELINE [CURRENT] [--subset]"
  in
  let _, baseline = parse_file baseline_file in
  let errors =
    Wcp_bench.Bench_json.compare_runs ~subset ~baseline ~current ()
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
  | _ :: "e18" :: _ -> e18 ()
  | _ :: "e19" :: _ -> e19 ()
  | _ :: "e20" :: _ -> e20 ()
  | _ :: "e21" :: _ -> e21 ()
  | _ :: "e22" :: _ -> e22 ()
  | _ :: "micro" :: _ -> micro ()
  | _ :: "json" :: rest -> json_mode rest
  | _ :: "perf-check" :: rest -> perf_check rest
  | _ ->
      tables ();
      micro ()
