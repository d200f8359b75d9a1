open Bench_json

let line = String.make 78 '-'

let header title claim =
  Printf.sprintf "\n%s\n%s\n%s\n%s\n" line title claim line

let mean_i f xs = List.fold_left (fun acc x -> acc + f x) 0 xs / List.length xs

let mean_f f xs =
  List.fold_left (fun acc x -> acc +. f x) 0.0 xs /. float_of_int (List.length xs)

(* Rows grouped by [key], groups in order of first appearance. *)
let group key rows =
  let keys =
    List.fold_left
      (fun ks r -> if List.mem (key r) ks then ks else key r :: ks)
      [] rows
  in
  List.rev_map (fun k -> (k, List.filter (fun r -> key r = k) rows)) keys

let by_algo a rows = List.filter (fun r -> r.job.algo = a) rows
let with_param p rows = List.find_opt (fun r -> r.job.param = p) rows

(* The (param 0, param 1) arms of each seed, in seed order. *)
let arms rows =
  List.filter_map
    (fun r0 ->
      if r0.job.param <> 0 then None
      else
        List.find_opt (fun r1 -> r1.job.param = 1 && r1.job.seed = r0.job.seed) rows
        |> Option.map (fun r1 -> (r0, r1)))
    rows

(* Mean of one det metric over rows. *)
let avg k rows = mean_i (fun r -> det_int r k) rows

let yes_no b = if b then "yes" else "NO"
let ms ns = float_of_int ns /. 1e6
let without k = List.filter (fun (k', _) -> k' <> k)

let e1 b rows =
  Printf.bprintf b "%4s %4s %7s %7s %8s %8s %9s %10s %9s\n" "n" "m" "states"
    "hops" "mon-msgs" "2nm" "work" "work/n2m" "max-work";
  List.iter
    (fun (n, rs) ->
      let g k = avg k rs in
      let mm r = det_int r "max_events" + 1 in
      Printf.bprintf b "%4d %4d %7d %7d %8d %8d %9d %10.3f %9d\n" n
        (List.hd rs).job.m (g "states") (g "hops")
        (mean_i (fun r -> det_int r "hops" + det_int r "snapshots") rs)
        (mean_i (fun r -> 2 * n * mm r) rs)
        (g "work")
        (mean_f
           (fun r -> float_of_int (det_int r "work") /. float_of_int (n * n * mm r))
           rs)
        (g "max_work"))
    (group (fun r -> r.job.n) rows)

let e2 b rows =
  Printf.bprintf b "%4s %12s %12s %7s %14s %14s\n" "n" "chk-space" "tok-space"
    "ratio" "chk-max-work" "tok-max-work";
  List.iter
    (fun (n, rs) ->
      match (by_algo "checker" rs, by_algo "token-vc" rs) with
      | [], _ | _, [] -> ()
      | chk, tok ->
          let cs = avg "max_space" chk and ts = avg "max_space" tok in
          Printf.bprintf b "%4d %12d %12d %7.2f %14d %14d\n" n cs ts
            (float_of_int cs /. float_of_int (max 1 ts))
            (avg "max_work" chk) (avg "max_work" tok))
    (group (fun r -> r.job.n) rows)

let e3 b rows =
  Printf.bprintf b "%4s %10s %8s %8s %9s\n" "g" "sim-time" "hops" "merges"
    "msgs";
  List.iter
    (fun (groups, rs) ->
      Printf.bprintf b "%4d %10.1f %8d %8d %9d\n" groups
        (mean_f (fun r -> det_float r "sim_time") rs)
        (avg "hops" rs) (avg "merges" rs) (avg "messages" rs))
    (group (fun r -> r.job.param) rows)

let e4 b rows =
  Printf.bprintf b "%4s %4s %7s %7s %8s %8s %9s %9s %9s\n" "N" "m" "polls"
    "hops" "mon-msgs" "3Nm" "bits" "max-work" "max-spc";
  List.iter
    (fun (n, rs) ->
      let g k = avg k rs in
      Printf.bprintf b "%4d %4d %7d %7d %8d %8d %9d %9d %9d\n" n
        (List.hd rs).job.m (g "polls") (g "hops")
        (mean_i (fun r -> (2 * det_int r "polls") + det_int r "hops") rs)
        (mean_i (fun r -> 3 * n * (det_int r "max_events" + 1)) rs)
        (g "mon_bits") (g "max_work") (g "max_space"))
    (group (fun r -> r.job.n) rows)

let e5 b rows =
  Printf.bprintf b "%4s %12s %12s %10s %12s %12s\n" "n" "vc-bits" "dd-bits"
    "winner" "vc-work" "dd-work";
  List.iter
    (fun (width, rs) ->
      match (by_algo "token-vc" rs, by_algo "token-dd" rs) with
      | [], _ | _, [] -> ()
      | vc, dd ->
          let vb = avg "traffic_bits" vc and db = avg "traffic_bits" dd in
          Printf.bprintf b "%4d %12d %12d %10s %12d %12d\n" width vb db
            (if vb < db then "vc" else "dd")
            (avg "work" vc) (avg "work" dd))
    (group (fun r -> r.job.param) rows)

let e6 b rows =
  Printf.bprintf b "%4s %5s %9s %11s %9s %7s\n" "n" "m" "rounds" "deletions"
    "nm-n" "ratio";
  List.iter
    (fun r ->
      let n = r.job.n and m = r.job.m in
      let deletions = det_int r "work" in
      let bound = (n * m) - n in
      Printf.bprintf b "%4d %5d %9d %11d %9d %7.3f\n" n m (det_int r "events")
        deletions bound
        (float_of_int deletions /. float_of_int (max 1 bound)))
    rows

let e7_algos = [ "checker"; "token-vc"; "token-multi"; "token-dd"; "token-dd-par" ]

let e7 b rows =
  Printf.bprintf b "%-22s %8s %8s %8s %8s %8s %8s\n" "workload" "outcome"
    "checker" "tok-vc" "multi" "tok-dd" "dd-par";
  List.iter
    (fun ((_, p_pred), rs) ->
      let r0 = List.hd rs in
      let name =
        match e7_workload r0.job with
        | Some w -> w.Wcp_trace.Workloads.name
        | None -> Printf.sprintf "random p=%g" p_pred
      in
      let cell algo =
        match by_algo algo rs with
        | r :: _ -> if det_int r "agrees" = 1 then "ok" else "FAIL"
        | [] -> "-"
      in
      Printf.bprintf b "%-22s %8s" name
        (Wcp_obs.Export.Json.to_str (det r0 "oracle"));
      List.iter (fun a -> Printf.bprintf b " %8s" (cell a)) e7_algos;
      Buffer.add_char b '\n')
    (group (fun r -> (r.job.param, r.job.p_pred)) rows)

let e8 b rows =
  Printf.bprintf b "%4s %12s %12s %9s %10s %10s\n" "N" "seq-time" "par-time"
    "speedup" "seq-polls" "par-polls";
  List.iter
    (fun (n, rs) ->
      match (by_algo "token-dd" rs, by_algo "token-dd-par" rs) with
      | [], _ | _, [] -> ()
      | seq, par ->
          let time rs = mean_f (fun r -> det_float r "sim_time") rs in
          let st = time seq and pt = time par in
          Printf.bprintf b "%4d %12.1f %12.1f %9.2f %10d %10d\n" n st pt
            (st /. pt) (avg "polls" seq) (avg "polls" par))
    (group (fun r -> r.job.n) rows)

let e15 b rows =
  Printf.bprintf b "%8s %10s %12s %9s %10s\n" "domains" "sessions" "wall-ms"
    "sess/s" "identical";
  match rows with
  | [] -> ()
  | base :: _ ->
      List.iter
        (fun r ->
          (* Every det metric must agree whatever the domain count. *)
          let identical =
            r.outcome = "ok" && r.outcome = base.outcome && r.det = base.det
          in
          let wall_s = float_of_int (wall_int r "wall_ns") /. 1e9 in
          Printf.bprintf b "%8d %10d %12.1f %9.0f %10s\n" r.job.param
            e15_sessions (wall_s *. 1e3)
            (float_of_int e15_sessions /. wall_s)
            (yes_no identical))
        rows

let e16 b rows =
  Printf.bprintf b "%-12s %4s %12s %12s %7s %9s\n" "algo" "n" "dense-bits"
    "delta-bits" "ratio" "same-cut";
  List.iter
    (fun (algo, rs) ->
      List.iter
        (fun (n, rs) ->
          let pairs = arms rs in
          let dense = avg "bits" (List.map fst pairs) in
          let delta = avg "bits" (List.map snd pairs) in
          (* Same run: every det metric except bits agrees. *)
          let same =
            List.for_all
              (fun (d0, d1) ->
                d0.outcome = d1.outcome
                && without "bits" d0.det = without "bits" d1.det)
              pairs
          in
          Printf.bprintf b "%-12s %4d %12d %12d %7.2f %9s\n" algo n dense delta
            (float_of_int dense /. float_of_int (max 1 delta))
            (yes_no same))
        (group (fun r -> r.job.n) rs))
    (group (fun r -> r.job.algo) rows)

let e17 b rows =
  Printf.bprintf b "%-12s %4s %11s %12s %12s %7s %9s\n" "algo" "n" "slice-state"
    "dense-event" "slice-event" "ratio" "same-cut";
  let sparse = List.filter (fun r -> r.job.p_pred = 0.02) rows in
  List.iter
    (fun (algo, rs) ->
      List.iter
        (fun (n, rs) ->
          let pairs = arms rs in
          let dense = avg "events" (List.map fst pairs) in
          let sliced = avg "events" (List.map snd pairs) in
          let sstates = avg "slice_states" (List.map snd pairs) in
          (* The outcome spells the cut in dense coordinates; everything
             else legitimately shrinks or reshapes on the slice. *)
          let same = List.for_all (fun (d, s) -> d.outcome = s.outcome) pairs in
          Printf.bprintf b "%-12s %4d %11d %12d %12d %7.2f %9s\n" algo n sstates
            dense sliced
            (float_of_int dense /. float_of_int (max 1 sliced))
            (yes_no same))
        (group (fun r -> r.job.n) rs))
    (group (fun r -> r.job.algo) sparse)

let e18 b rows =
  Printf.bprintf b "%5s %11s %9s %9s %9s %9s %8s %7s %9s %9s\n" "n" "checker-ms"
    "d=1-ms" "d=2-ms" "d=4-ms" "d=8-ms" "speedup" "rounds" "items" "same-cut";
  List.iter
    (fun (n, rs) ->
      match (by_algo "checker" rs, by_algo "parallel" rs) with
      | [], _ | _, [] -> ()
      | ck :: _, (p1 :: _ as par) ->
          let wall_ms r = ms (wall_int r "wall_ns") in
          let cell d =
            match with_param d par with
            | Some r -> Printf.sprintf "%.2f" (wall_ms r)
            | None -> "-"
          in
          let best = List.fold_left (fun acc p -> min acc (wall_ms p)) infinity par in
          (* Every domain count spells out the checker's cut, and the
             round shape is domain-count independent. *)
          let same =
            List.for_all (fun p -> p.outcome = ck.outcome && p.det = p1.det) par
          in
          Printf.bprintf b "%5d %11.2f %9s %9s %9s %9s %8.2f %7d %9d %9s\n" n
            (wall_ms ck) (cell 1) (cell 2) (cell 4) (cell 8)
            (wall_ms ck /. best) (det_int p1 "par_rounds") (det_int p1 "par_items")
            (yes_no same))
    (group (fun r -> r.job.n) rows)

let e19 b rows =
  Printf.bprintf b "%-12s %4s %8s %8s %9s %9s %8s %9s\n" "algo" "n" "ref-t"
    "rec-t" "rec-lat" "replayed" "retx" "same-cut";
  List.iter
    (fun (algo, rs) ->
      List.iter
        (fun (n, rs) ->
          match arms rs with
          | [] -> ()
          | (reference, recovered) :: _ ->
              let t r = det_float r "sim_time" in
              Printf.bprintf b "%-12s %4d %8.2f %8.2f %9.2f %9d %8d %9s\n" algo n
                (t reference) (t recovered)
                (det_float recovered "recovery_latency")
                (det_int recovered "replayed")
                (det_int recovered "retransmits")
                (yes_no (reference.outcome = recovered.outcome)))
        (group (fun r -> r.job.n) rs))
    (group (fun r -> r.job.algo) rows)

let e21 b rows =
  Printf.bprintf b "%-10s %4s %6s %10s %10s %9s %9s %10s %9s\n" "algo" "n" "m"
    "txt-bytes" "bt-bytes" "txt-dec" "bt-dec" "peak-words" "same-cut";
  List.iter
    (fun (algo, rs) ->
      List.iter
        (fun ((n, m), rs) ->
          match arms rs with
          | [] -> ()
          | (dense, streamed) :: _ ->
              let dec r = ms (wall_int r "decode_ns") in
              Printf.bprintf b "%-10s %4d %6d %10d %10d %8.2fms %8.2fms %10d %9s\n"
                algo n m
                (det_int dense "trace_bytes")
                (det_int streamed "trace_bytes")
                (dec dense) (dec streamed)
                (wall_int streamed "peak_words")
                (yes_no (dense.outcome = streamed.outcome)))
        (group (fun r -> (r.job.n, r.job.m)) rs))
    (group (fun r -> r.job.algo) rows)

let e22 b rows =
  Printf.bprintf b "%-10s %4s %4s %6s %4s %6s %12s %9s %9s %10s %7s\n" "algo"
    "sess" "dom" "mode" "n" "m" "events/sec" "lat-p50" "lat-p95" "peak-words"
    "cut-ok";
  (* Every algo's 2-session binary cut row, then the token-vc shapes. *)
  let base, shapes = List.partition (fun r -> r.job.param = 2010) rows in
  List.iter
    (fun r ->
      let p = r.job.param in
      let mismatch =
        String.length r.outcome >= 8 && String.sub r.outcome 0 8 = "mismatch"
      in
      Printf.bprintf b "%-10s %4d %4d %6s %4d %6d %12.0f %7.1fms %7.1fms %10s %7s\n"
        r.job.algo (p / 1000) (p / 10 mod 100)
        (match p mod 10 with 0 -> "bin" | 1 -> "jsonl" | _ -> "slow")
        r.job.n r.job.m
        (wall_float r "events_per_sec")
        (ms (wall_int r "lat_p50_ns"))
        (ms (wall_int r "lat_p95_ns"))
        (match List.assoc_opt "peak_words" r.wall with
        | Some w -> Wcp_obs.Export.Json.to_string w
        | None -> "-")
        (yes_no (not mismatch)))
    (base @ by_algo "token-vc" shapes)

let tables =
  [
    ( "E1",
      "E1  token-vc scaling (paper §3.4)",
      "claim: <= 2nm monitor messages; O(n^2 m) total work/bits; O(nm) per process",
      e1 );
    ( "E2",
      "E2  space and work skew: checker [7] vs token-vc (paper §3.4)",
      "claim: checker needs O(n^2 m) words on ONE process; token-vc O(nm) each",
      e2 );
    ( "E3",
      "E3  multi-token parallelism (paper §3.5)",
      "claim: g tokens work concurrently; detection (simulated) time drops with g",
      e3 );
    ( "E4",
      "E4  token-dd scaling (paper §4.4)",
      "claim: <= 3Nm monitor messages, O(Nm) bits, O(m) work & space per process",
      e4 );
    ( "E5",
      "E5  vc vs dd crossover (paper §1/§4/§6)",
      "claim: dd's O(Nm) beats vc's O(n^2 m) once n^2 >> N  (here N = 64, so n ~ 8)",
      e5 );
    ( "E6",
      "E6  adversary lower bound (paper §5, Theorem 5.1)",
      "claim: any S1/S2 algorithm is forced through >= nm - n sequential deletions",
      e6 );
    ( "E7",
      "E7  agreement matrix: all detectors vs the oracle (Figs 2-5)",
      "claim: every algorithm halts with the FIRST cut satisfying the WCP",
      e7 );
    ( "E8",
      "E8  prefetching dd variant (paper §4.5)",
      "claim: overlapping candidate search with the token shrinks detection time",
      e8 );
    ( "E15",
      "E15 multicore throughput: detection sessions/sec vs domains",
      "claim: Parallel.map output is byte-identical at any domain count; wall drops",
      e15 );
    ( "E16",
      "E16 delta encoding: wire bits vs the dense baseline",
      "claim: sparse clock updates make delta+gating cut bits >= 2x at n=32; cuts identical",
      e16 );
    ( "E17",
      "E17 computation slicing: detect on the slice vs the dense run",
      "claim: sparse truth (p_pred=0.02) cuts events examined >= 2x at n=32; cuts identical",
      e17 );
    ( "E18",
      "E18 domain-parallel checker: wall-clock crossover vs centralized",
      "claim: byte-identical cuts at every domain count; parallel wins at n>=64",
      e18 );
    ( "E19",
      "E19 crash recovery: mid-protocol monitor restart vs fault-free run",
      "claim: the recovered run's first cut is byte-identical to the fault-free \
       oracle for every token algorithm",
      e19 );
    ( "E21",
      "E21 binary trace store: mmap'd streamed replay vs dense text decode",
      "claim: btrace shrinks the on-disk trace and its decode time while the \
       streamed cut stays byte-identical to the dense reference",
      e21 );
    ( "E22",
      "E22 streaming detection service: domain-sharded sessions over a socket",
      "claim: served cuts are byte-identical to offline streamed detection while \
       batched ingest sustains high aggregate events/sec and slow clients shed \
       to disk, not heap",
      e22 );
  ]

let row_backed = List.map (fun (exp, _, _, _) -> exp) tables

let render exp rows =
  match List.find_opt (fun (e, _, _, _) -> e = exp) tables with
  | None -> invalid_arg ("Bench_tables.render: no table for " ^ exp)
  | Some (_, title, claim, body) ->
      let b = Buffer.create 2048 in
      Buffer.add_string b (header title claim);
      body b
        (List.filter (fun r -> r.job.experiment = exp) (Array.to_list rows));
      Buffer.contents b
