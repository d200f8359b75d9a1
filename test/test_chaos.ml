(* End-to-end chaos: the token detectors under a lossy, duplicating,
   spiking network — and under process crashes — compared against the
   fault-free oracle. *)

open Wcp_trace
open Wcp_core
open Wcp_sim

(* The seeded corpus: enough shapes to exercise No_detection, immediate
   detection, and late detection, without making the suite slow. *)
let corpus =
  List.concat_map
    (fun params -> List.map (fun s -> (params, s)) [ 1; 2; 3 ])
    [
      (2, 3, 60, 50, 11);
      (3, 4, 50, 50, 12);
      (4, 5, 40, 60, 13);
      (4, 6, 0, 50, 14);
      (* never detectable *)
      (4, 6, 100, 50, 15);
      (* initial cut *)
      (5, 6, 55, 40, 16);
    ]

let chaos ~seed = Fault.uniform ~seed ~drop:0.2 ~dup:0.1 ()

let check_against_oracle name detect project =
  List.iter
    (fun (params, s) ->
      let comp = Helpers.build_comp params in
      let spec = Spec.all comp in
      let expected = Oracle.first_cut comp spec in
      let seed = Int64.of_int s in
      let r = detect ~fault:(chaos ~seed) ~seed comp spec in
      let got =
        if project then Detection.project_outcome spec r.Detection.outcome
        else r.Detection.outcome
      in
      Alcotest.check Helpers.outcome
        (Format.asprintf "%s %s seed %d" name
           (Format.asprintf "%a" Computation.pp_summary comp)
           s)
        expected got)
    corpus

let test_vc_chaos_matches_oracle () =
  check_against_oracle "token-vc"
    (fun ~fault ~seed comp spec -> Token_vc.detect ~fault ~seed comp spec)
    false

let test_dd_chaos_matches_oracle () =
  check_against_oracle "token-dd"
    (fun ~fault ~seed comp spec -> Token_dd.detect ~fault ~seed comp spec)
    true

let test_dd_par_chaos_matches_oracle () =
  check_against_oracle "token-dd-par"
    (fun ~fault ~seed comp spec ->
      Token_dd.detect ~fault ~parallel:true ~seed comp spec)
    true

let test_multi_chaos_matches_oracle () =
  check_against_oracle "token-multi"
    (fun ~fault ~seed comp spec ->
      let groups = min 2 (Spec.width spec) in
      Token_multi.detect ~fault ~groups ~seed comp spec)
    false

(* Chaos must not change WHAT is computed, only how hard it is: the
   same plan twice gives identical results and identical cost totals. *)
let test_chaos_deterministic () =
  let comp = Helpers.build_comp (4, 5, 40, 60, 13) in
  let spec = Spec.all comp in
  let run () =
    let r = Token_vc.detect ~fault:(chaos ~seed:7L) ~seed:7L comp spec in
    Format.asprintf "%a | sent=%d retx=%d dropped=%d t=%.9f"
      Detection.pp_outcome r.Detection.outcome
      (Stats.total_sent r.Detection.stats)
      (Stats.total_retransmits r.Detection.stats)
      (Stats.net_dropped r.Detection.stats)
      r.Detection.sim_time
  in
  Alcotest.(check string) "bit-identical chaos" (run ()) (run ())

(* Passing [Fault.none] must leave every observable of the run — cut,
   costs, timing, event count — identical to not passing a plan. *)
let test_fault_none_identical () =
  List.iter
    (fun (params, s) ->
      let comp = Helpers.build_comp params in
      let spec = Spec.all comp in
      let seed = Int64.of_int s in
      let show (r : Detection.result) =
        Format.asprintf "%a sent=%d bits=%d work=%d events=%d t=%.9f hops=%d"
          Detection.pp_outcome r.outcome
          (Stats.total_sent r.stats) (Stats.total_bits r.stats)
          (Stats.total_work r.stats) r.events r.sim_time r.extras.token_hops
      in
      Alcotest.(check string) "vc: Fault.none ≡ no plan"
        (show (Token_vc.detect ~seed comp spec))
        (show (Token_vc.detect ~fault:Fault.none ~seed comp spec));
      Alcotest.(check string) "dd: Fault.none ≡ no plan"
        (show (Token_dd.detect ~seed comp spec))
        (show (Token_dd.detect ~fault:Fault.none ~seed comp spec)))
    corpus

(* A monitor that is permanently crashed mid-run must yield graceful
   degradation, not a hang: the transport gives up on the dead peer and
   the run reports who was lost. *)
let crash_monitor_plan comp ~at =
  let n = Computation.n comp in
  (* Engine id of the monitor of application process 0. *)
  let mon0 = n + 0 in
  Fault.make
    ~windows:[ Fault.window ~kind:Fault.Crash ~proc:mon0 ~from_t:at () ]
    ()

let expect_undetectable name (r : Detection.result) =
  match r.Detection.outcome with
  | Detection.Undetectable_crashed procs ->
      Alcotest.(check bool)
        (name ^ ": crash report is non-empty")
        true (procs <> [])
  | o ->
      Alcotest.failf "%s: expected Undetectable_crashed, got %a" name
        Detection.pp_outcome o

let test_vc_permanent_crash_degrades () =
  let comp = Helpers.build_comp (4, 5, 40, 60, 13) in
  let spec = Spec.all comp in
  expect_undetectable "token-vc"
    (Token_vc.detect ~fault:(crash_monitor_plan comp ~at:0.0) ~seed:3L comp spec)

let test_dd_permanent_crash_degrades () =
  let comp = Helpers.build_comp (4, 5, 40, 60, 13) in
  let spec = Spec.all comp in
  expect_undetectable "token-dd"
    (Token_dd.detect ~fault:(crash_monitor_plan comp ~at:0.0) ~seed:3L comp spec)

let test_multi_permanent_crash_degrades () =
  let comp = Helpers.build_comp (4, 5, 40, 60, 13) in
  let spec = Spec.all comp in
  expect_undetectable "token-multi"
    (Token_multi.detect
       ~fault:(crash_monitor_plan comp ~at:0.0)
       ~groups:2 ~seed:3L comp spec)

(* A transient crash loses in-flight messages but the process comes
   back; retransmission + the token watchdog must heal the run and the
   verdict must still match the oracle. *)
let test_transient_crash_heals () =
  List.iter
    (fun (params, s) ->
      let comp = Helpers.build_comp params in
      let n = Computation.n comp in
      let spec = Spec.all comp in
      let fault =
        Fault.make
          ~windows:
            [
              Fault.window ~kind:Fault.Crash ~proc:(n + 0) ~from_t:1.0
                ~until_t:9.0 ();
            ]
          ()
      in
      let seed = Int64.of_int s in
      let expected = Oracle.first_cut comp spec in
      Alcotest.check Helpers.outcome
        (Printf.sprintf "vc heals, seed %d" s)
        expected
        (Token_vc.detect ~fault ~seed comp spec).Detection.outcome;
      Alcotest.check Helpers.outcome
        (Printf.sprintf "dd heals, seed %d" s)
        expected
        (Detection.project_outcome spec
           (Token_dd.detect ~fault ~seed comp spec).Detection.outcome))
    [ ((3, 4, 50, 50, 12), 1); ((4, 5, 40, 60, 13), 2); ((4, 6, 0, 50, 14), 3) ]

(* A stall is weaker than a crash: nothing is lost, so even without
   retransmission kicking in the verdict is unchanged. *)
let test_stall_preserves_verdict () =
  let comp = Helpers.build_comp (4, 5, 40, 60, 13) in
  let n = Computation.n comp in
  let spec = Spec.all comp in
  let fault =
    Fault.make
      ~windows:
        [ Fault.window ~kind:Fault.Stall ~proc:(n + 1) ~from_t:0.5 ~until_t:40.0 () ]
      ()
  in
  Alcotest.check Helpers.outcome "stalled monitor still answers"
    (Oracle.first_cut comp spec)
    (Token_vc.detect ~fault ~seed:5L comp spec).Detection.outcome

(* Restart windows compose with link chaos: under drop + dup + a
   mid-run monitor restart, equal seeds reproduce the run bit for bit
   — recovery counters included — and the healed verdict still matches
   the fault-free oracle. *)
let test_restart_composes_with_chaos =
  Helpers.qtest ~count:10 "restart composes with drop/dup"
    QCheck2.Gen.(
      tup3
        (Helpers.gen_comp_params ~max_n:5 ~max_sends:6)
        (int_range 0 9_999) (int_range 0 3))
    (fun (params, s, w) ->
      let comp = Helpers.build_comp params in
      let n = Computation.n comp in
      let spec = Spec.all comp in
      let from_t = 0.5 +. float_of_int w in
      let fault () =
        Fault.uniform ~seed:(Int64.of_int s) ~drop:0.15 ~dup:0.1
          ~windows:
            [
              Fault.window ~kind:Fault.Restart ~proc:(n + (s mod n)) ~from_t
                ~until_t:(from_t +. 6.0) ();
            ]
          ()
      in
      let seed = Int64.of_int s in
      let show (r : Detection.result) =
        Format.asprintf
          "%a sent=%d retx=%d replayed=%d ckpts=%d restores=%d t=%.9f"
          Detection.pp_outcome r.outcome
          (Stats.total_sent r.stats)
          (Stats.total_retransmits r.stats)
          (Stats.replayed r.stats) (Stats.checkpoints r.stats)
          (Stats.restores r.stats) r.sim_time
      in
      let a = Token_vc.detect ~fault:(fault ()) ~seed comp spec in
      let b = Token_vc.detect ~fault:(fault ()) ~seed comp spec in
      Alcotest.(check string) "equal seeds, identical runs" (show a) (show b);
      Alcotest.check Helpers.outcome "healed verdict matches oracle"
        (Oracle.first_cut comp spec) a.Detection.outcome;
      true)

(* A plan with zero rates and no windows stays a strict no-op even for
   random seeds — the recovery layer must not perturb it. *)
let test_zero_fault_plan_untouched =
  Helpers.qtest ~count:10 "zero-fault restart-free plans unchanged"
    QCheck2.Gen.(
      pair (Helpers.gen_comp_params ~max_n:4 ~max_sends:5) (int_range 0 9_999))
    (fun (params, s) ->
      let comp = Helpers.build_comp params in
      let spec = Spec.all comp in
      let seed = Int64.of_int s in
      let show (r : Detection.result) =
        Format.asprintf "%a sent=%d bits=%d events=%d t=%.9f"
          Detection.pp_outcome r.outcome
          (Stats.total_sent r.stats) (Stats.total_bits r.stats) r.events
          r.sim_time
      in
      let bare = show (Token_vc.detect ~seed comp spec) in
      Alcotest.(check string) "uniform () ≡ no plan" bare
        (show
           (Token_vc.detect
              ~fault:(Fault.uniform ~seed:(Int64.of_int s) ())
              ~seed comp spec));
      true)

let () =
  Alcotest.run "chaos"
    [
      ( "oracle-agreement",
        [
          Alcotest.test_case "token-vc under drop+dup" `Quick
            test_vc_chaos_matches_oracle;
          Alcotest.test_case "token-dd under drop+dup" `Quick
            test_dd_chaos_matches_oracle;
          Alcotest.test_case "token-dd-par under drop+dup" `Quick
            test_dd_par_chaos_matches_oracle;
          Alcotest.test_case "token-multi under drop+dup" `Quick
            test_multi_chaos_matches_oracle;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "chaos runs are reproducible" `Quick
            test_chaos_deterministic;
          Alcotest.test_case "Fault.none is a no-op" `Quick
            test_fault_none_identical;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "vc: permanent crash reported" `Quick
            test_vc_permanent_crash_degrades;
          Alcotest.test_case "dd: permanent crash reported" `Quick
            test_dd_permanent_crash_degrades;
          Alcotest.test_case "multi: permanent crash reported" `Quick
            test_multi_permanent_crash_degrades;
          Alcotest.test_case "transient crash heals" `Quick
            test_transient_crash_heals;
          Alcotest.test_case "stall preserves the verdict" `Quick
            test_stall_preserves_verdict;
        ] );
      ( "restart-composition",
        [ test_restart_composes_with_chaos; test_zero_fault_plan_untouched ] );
    ]
