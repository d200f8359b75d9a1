(* The machine-readable bench harness: JSON round-trip, schema
   stability, and the determinism contract (sequential and parallel
   sweeps must produce identical metrics). Runs the smoke profile, so
   this doubles as an end-to-end exercise of the E1-E8 job runner
   inside `dune runtest`. *)

open Wcp_bench

let smoke_seq = lazy (Bench_json.run ~domains:1 Bench_json.Smoke)

let test_smoke_runs () =
  let results = Lazy.force smoke_seq in
  Alcotest.(check int) "all jobs ran"
    (List.length (Bench_json.jobs Bench_json.Smoke))
    (Array.length results);
  Array.iter
    (fun (r : Bench_json.metrics) ->
      (* E15 rows report the parallel-batch byte-identity check instead
         of a detection verdict; E17/E18 detections spell out the cut
         so the baseline pins it byte-for-byte. *)
      let detected_cut s =
        String.length s > 9 && String.sub s 0 9 = "detected "
      in
      let valid =
        if r.job.experiment = "E15" then r.outcome = "ok"
        else
          r.outcome = "detected" || r.outcome = "none"
          || detected_cut r.outcome
      in
      Alcotest.(check bool)
        (Bench_json.job_key r.job ^ " has an outcome")
        true valid;
      Alcotest.(check bool)
        (Bench_json.job_key r.job ^ " did simulation work")
        true (r.events > 0))
    results

let test_json_roundtrip () =
  let results = Lazy.force smoke_seq in
  let doc = Bench_json.emit ~profile:Bench_json.Smoke results in
  let profile, parsed = Bench_json.parse_doc doc in
  Alcotest.(check string) "profile survives" "smoke"
    (Bench_json.profile_name profile);
  Alcotest.(check int) "record count" (Array.length results)
    (Array.length parsed);
  Array.iteri
    (fun i r ->
      if not (r = results.(i)) then
        Alcotest.failf "record %d changed in the round-trip: %s" i
          (Bench_json.job_key r.Bench_json.job))
    parsed

let test_json_values () =
  (* Spot-check the emitted document is plain JSON other tools can
     read: parse with the generic parser and navigate by hand. *)
  let results = Lazy.force smoke_seq in
  let doc = Bench_json.emit ~profile:Bench_json.Smoke results in
  let j = Wcp_obs.Export.Json.parse doc in
  let open Wcp_obs.Export.Json in
  Alcotest.(check string) "schema" Bench_json.schema
    (to_str (member "schema" j));
  let first = List.hd (to_list (member "results" j)) in
  Alcotest.(check string) "experiment" "E1" (to_str (member "experiment" first));
  Alcotest.(check bool) "wall_ns is an int" true
    (match member "wall_ns" first with Int _ -> true | _ -> false)

let test_parallel_matches_sequential () =
  let seq = Lazy.force smoke_seq in
  let par = Bench_json.run ~domains:2 Bench_json.Smoke in
  Alcotest.(check int) "same length" (Array.length seq) (Array.length par);
  Array.iteri
    (fun i s ->
      if not (Bench_json.deterministic_equal s par.(i)) then
        Alcotest.failf "parallel run diverged on %s"
          (Bench_json.job_key s.Bench_json.job))
    seq

let test_compare_runs_self () =
  let results = Lazy.force smoke_seq in
  Alcotest.(check (list string)) "self-compare is clean" []
    (Bench_json.compare_runs ~baseline:results ~current:results ())

let test_compare_runs_detects_drift () =
  let results = Lazy.force smoke_seq in
  let tampered = Array.map (fun r -> r) results in
  tampered.(0) <- { tampered.(0) with Bench_json.hops = 999_999 };
  match Bench_json.compare_runs ~baseline:results ~current:tampered () with
  | [] -> Alcotest.fail "drifted metrics went unnoticed"
  | _ :: _ -> ()

let test_parse_errors () =
  let bad s =
    match Bench_json.parse_doc s with
    | _ -> Alcotest.failf "accepted malformed input %S" s
    | exception Wcp_obs.Export.Json.Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,2,3]";
  bad "{\"schema\":\"other/9\",\"profile\":\"smoke\",\"results\":[]}"

let () =
  Alcotest.run "bench-json"
    [
      ( "harness",
        [
          Alcotest.test_case "smoke profile runs" `Quick test_smoke_runs;
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "json values" `Quick test_json_values;
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "compare: self" `Quick test_compare_runs_self;
          Alcotest.test_case "compare: drift" `Quick
            test_compare_runs_detects_drift;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
    ]
