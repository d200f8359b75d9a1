(* The bench pipeline: JSON round-trip, schema stability, the
   determinism contract (sequential and parallel sweeps must produce
   identical det metrics), drift reports, and the table renderers. Runs
   the smoke profile, so this doubles as an end-to-end exercise of
   every producer and every row-backed table inside `dune runtest`. *)

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
        true
        (Bench_json.det_int r "events" > 0))
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
    (match member "wall_ns" (member "wall" first) with
    | Int _ -> true
    | _ -> false);
  Alcotest.(check bool) "det is an object" true
    (match member "det" first with Obj (_ :: _) -> true | _ -> false)

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

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_compare_runs_detects_drift () =
  let results = Lazy.force smoke_seq in
  let tampered = Array.copy results in
  let r = tampered.(0) in
  tampered.(0) <-
    {
      r with
      Bench_json.det =
        List.map
          (fun (k, v) ->
            if k = "hops" then (k, Wcp_obs.Export.Json.Int 999_999) else (k, v))
          r.Bench_json.det;
    };
  let key = Bench_json.job_key r.Bench_json.job in
  match Bench_json.compare_runs ~baseline:results ~current:tampered () with
  | [ line ] ->
      Alcotest.(check bool) ("names the job: " ^ line) true (contains line key);
      Alcotest.(check bool) ("names the metric: " ^ line) true
        (contains line "hops " && contains line "-> 999999")
  | lines ->
      Alcotest.failf "expected one drift line, got %d" (List.length lines)

let test_unknown_metric () =
  let r = (Lazy.force smoke_seq).(0) in
  Alcotest.check_raises "unknown det name"
    (Invalid_argument
       (Printf.sprintf "Bench_json: %s has no det metric \"no_such\""
          (Bench_json.job_key r.Bench_json.job)))
    (fun () -> ignore (Bench_json.det_int r "no_such"));
  match Bench_json.wall_int r "hops" with
  | _ -> Alcotest.fail "a det name was found in the wall lane"
  | exception Invalid_argument _ -> ()

let test_render_tables () =
  let results = Lazy.force smoke_seq in
  List.iter
    (fun exp ->
      let out = Bench_tables.render exp results in
      (* header block (blank, rule, title, claim, rule), the column
         header, then at least one line drawn from the smoke rows *)
      let lines =
        List.filter (( <> ) "") (String.split_on_char '\n' out)
      in
      if List.length lines < 6 then
        Alcotest.failf "%s rendered no rows from the smoke profile:\n%s" exp out)
    Bench_tables.row_backed

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
          Alcotest.test_case "unknown metric" `Quick test_unknown_metric;
          Alcotest.test_case "render tables" `Quick test_render_tables;
        ] );
    ]
