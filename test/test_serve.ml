(* wcp-serve/1 (Wcp_serve): bounded loopback smoke for the streaming
   detection service. A real server runs in-process on a unix socket in
   a temp dir; real clients stream real traces at it. The contract
   under test is DESIGN.md §13's headline: the served outcome is
   byte-identical to the offline streamed detection of the same trace,
   for every algorithm, both framings, through the spill path, and
   across a kill-and-reconnect. [make serve-check] exercises the same
   contract end-to-end through the CLI binaries. *)

open Wcp_trace
open Wcp_core
open Wcp_serve

let random_comp ~n ~m ~p_pred ~seed =
  Generator.random
    ~params:{ Generator.n; sends_per_process = m; p_pred; p_recv = 0.5 }
    ~seed ()

let algos =
  [ "token-vc"; "multi-token"; "token-dd"; "token-dd-par"; "checker"; "parallel" ]

(* The offline reference: the CLI's [--stream] path (slice off a
   cursor, detect, remap), with the exact dispatch [Session] uses, so
   any disagreement is the service's fault, not a harness delta. *)
let offline_outcome comp ~algo ~procs ~seed ~groups =
  let keep_rest =
    match algo with "token-dd" | "token-dd-par" -> true | _ -> false
  in
  let options = Detection.default_options in
  let r =
    Run_common.on_slice ~procs
      (fun () ->
        Wcp_slice.Slice.for_spec_source ~keep_rest
          (Computation.Stream.of_computation comp)
          ~procs)
      ~run:(fun sliced spec ->
        match algo with
        | "token-vc" -> Token_vc.detect ~options ~seed sliced spec
        | "multi-token" ->
            Token_multi.detect ~options
              ~groups:(min groups (Spec.width spec))
              ~seed sliced spec
        | "token-dd" -> Token_dd.detect ~options ~seed sliced spec
        | "token-dd-par" ->
            Token_dd.detect ~options ~parallel:true ~seed sliced spec
        | "checker" -> Checker_centralized.detect ~options ~seed sliced spec
        | "parallel" -> Checker_parallel.detect ~options ~seed sliced spec
        | a -> Alcotest.failf "unknown algo %s" a)
  in
  Format.asprintf "%a" Detection.pp_outcome r.Detection.outcome

(* Spin up a server on a fresh unix socket, run [f addr], then stop,
   join, and verify the spool is clean: every spill file must have
   been recycled and unlinked by the time the server is down. *)
let with_server ?(ring = 4096) ?(drain_delay = 0.) f =
  let dir = Filename.temp_file "wcp-serve-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let addr = Protocol.Unix_sock (Filename.concat dir "sock") in
  let cfg =
    {
      (Server.default_config ~addr) with
      ring;
      drain_delay;
      spool_dir = dir;
      log = ignore;
    }
  in
  let srv = Server.create cfg in
  let th = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th;
      let leftover = Sys.readdir dir in
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        leftover;
      Unix.rmdir dir;
      Alcotest.(check (array string)) "spool clean after shutdown" [||] leftover)
    (fun () -> f addr)

let feed ?frames ?batch ?kill_after ?metrics_every ?on_metrics ~addr ~session
    ~algo comp =
  let n = Computation.n comp in
  Client.run_session ?frames ?batch ?kill_after ?metrics_every ?on_metrics
    ~retry:5. ~addr ~session ~algo
    ~procs:(Array.init n Fun.id)
    ~seed:1L
    (Computation.Stream.of_computation comp)

let served_outcome label = function
  | Ok (Client.Completed o) -> o.Client.outcome
  | Ok (Client.Killed k) -> Alcotest.failf "%s: killed at %d" label k
  | Error m -> Alcotest.failf "%s: %s" label m

(* --- every algorithm, both framings -------------------------------- *)

let test_algos_vs_offline () =
  let comp = random_comp ~n:6 ~m:12 ~p_pred:0.3 ~seed:5L in
  let procs = Array.init 6 Fun.id in
  with_server (fun addr ->
      List.iter
        (fun algo ->
          let expect =
            offline_outcome comp ~algo ~procs ~seed:1L ~groups:2
          in
          let got =
            served_outcome algo (feed ~addr ~session:("bin-" ^ algo) ~algo comp)
          in
          Alcotest.(check string) (algo ^ " (binary)") expect got)
        algos;
      (* jsonl framing must spell out the same cut *)
      let expect = offline_outcome comp ~algo:"token-vc" ~procs ~seed:1L ~groups:2 in
      let got =
        served_outcome "token-vc jsonl"
          (feed ~frames:Protocol.Jsonl ~addr ~session:"jsonl-vc"
             ~algo:"token-vc" comp)
      in
      Alcotest.(check string) "token-vc (jsonl)" expect got)

(* --- tiny ring: the spill path ------------------------------------- *)

let test_spill () =
  let comp = random_comp ~n:6 ~m:40 ~p_pred:0.2 ~seed:9L in
  let procs = Array.init 6 Fun.id in
  let expect = offline_outcome comp ~algo:"token-vc" ~procs ~seed:1L ~groups:2 in
  (* a 16-slot ring and an artificially slow worker force overflow to
     disk; the result must not notice (with_server then asserts the
     spill file was recycled and unlinked) *)
  with_server ~ring:16 ~drain_delay:0.002 (fun addr ->
      let got =
        served_outcome "spill"
          (feed ~batch:32 ~addr ~session:"spill" ~algo:"token-vc" comp)
      in
      Alcotest.(check string) "outcome through spill" expect got)

(* --- kill mid-stream, reconnect, replay from ack ------------------- *)

let test_reconnect () =
  let comp = random_comp ~n:6 ~m:20 ~p_pred:0.3 ~seed:3L in
  let procs = Array.init 6 Fun.id in
  let expect = offline_outcome comp ~algo:"token-vc" ~procs ~seed:1L ~groups:2 in
  with_server (fun addr ->
      (match feed ~kill_after:25 ~addr ~session:"rc" ~algo:"token-vc" comp with
      | Ok (Client.Killed k) ->
          Alcotest.(check bool) "killed after >= 25" true (k >= 25)
      | Ok (Client.Completed _) -> Alcotest.fail "kill_after did not trip"
      | Error m -> Alcotest.failf "kill leg: %s" m);
      (* same session id: the server acks the prefix it holds and the
         client replays only the tail of the canonical linearization *)
      let got =
        served_outcome "reconnect"
          (feed ~addr ~session:"rc" ~algo:"token-vc" comp)
      in
      Alcotest.(check string) "outcome after reconnect" expect got)

(* --- concurrent sessions, one shared server ------------------------ *)

let test_concurrent () =
  let comp = random_comp ~n:5 ~m:15 ~p_pred:0.3 ~seed:7L in
  let procs = Array.init 5 Fun.id in
  with_server (fun addr ->
      let results = Array.make 3 (Error "unset") in
      let feeders =
        Array.init 3 (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  feed ~addr
                    ~session:(Printf.sprintf "conc-%d" i)
                    ~algo:"token-vc" comp)
              ())
      in
      Array.iter Thread.join feeders;
      let expect =
        offline_outcome comp ~algo:"token-vc" ~procs ~seed:1L ~groups:2
      in
      Array.iteri
        (fun i r ->
          Alcotest.(check string)
            (Printf.sprintf "session %d" i)
            expect
            (served_outcome (Printf.sprintf "conc-%d" i) r))
        results)

(* --- telemetry on the session socket ------------------------------- *)

let test_metrics () =
  let comp = random_comp ~n:6 ~m:12 ~p_pred:0.3 ~seed:5L in
  with_server (fun addr ->
      let lines = ref [] in
      let r =
        feed ~metrics_every:1.
          ~on_metrics:(fun l -> lines := l :: !lines)
          ~addr ~session:"tel" ~algo:"token-vc" comp
      in
      let (_ : string) = served_outcome "metrics session" r in
      Alcotest.(check bool) "got metrics lines" true (!lines <> []);
      List.iter
        (fun l ->
          match Wcp_obs.Telemetry.decode_line l with
          | Ok (_ : Wcp_obs.Telemetry.line) -> ()
          | Error m -> Alcotest.failf "bad wcp-metrics/1 line %S: %s" l m)
        !lines)

(* --- one live connection per session -------------------------------- *)

let test_busy () =
  let comp = random_comp ~n:4 ~m:10 ~p_pred:0.3 ~seed:11L in
  let procs = Array.init 4 Fun.id in
  let expect = offline_outcome comp ~algo:"token-vc" ~procs ~seed:1L ~groups:2 in
  with_server (fun addr ->
      (* a raw client holds session "busy" open after its welcome *)
      let src = Computation.Stream.of_computation comp in
      let hello =
        {
          Protocol.session = "busy";
          n = 4;
          algo = "token-vc";
          procs;
          seed = 1L;
          groups = 2;
          pred0 = Array.init 4 (fun p -> src.Computation.Stream.pred ~proc:p ~state:1);
          frames = Protocol.Binary;
          metrics_every = 0.;
        }
      in
      let fd = Protocol.connect ~retry:5. addr in
      Protocol.write_string fd (Protocol.encode_client (Protocol.Hello hello) ^ "\n");
      (match Protocol.read_line (Protocol.reader fd) with
      | Some l -> (
          match Protocol.decode_server l ~pos:0 ~len:(String.length l) with
          | Ok (Protocol.Welcome _) -> ()
          | _ -> Alcotest.failf "expected a welcome, got %S" l)
      | None -> Alcotest.fail "no welcome");
      (match feed ~addr ~session:"busy" ~algo:"token-vc" comp with
      | Error m ->
          Alcotest.(check string) "second connection refused"
            "session busy: already has a live connection" m
      | Ok _ -> Alcotest.fail "two live connections shared a session");
      (* once the holder hangs up, the session is free again *)
      Unix.close fd;
      Alcotest.(check string) "outcome after the holder left" expect
        (served_outcome "busy" (feed ~addr ~session:"busy" ~algo:"token-vc" comp)))

(* --- a bad hello is refused before any event is streamed ------------ *)

let test_bad_groups () =
  let comp = random_comp ~n:4 ~m:10 ~p_pred:0.3 ~seed:11L in
  with_server (fun addr ->
      match
        Client.run_session ~groups:0 ~retry:5. ~addr ~session:"g0"
          ~algo:"multi-token" ~procs:(Array.init 4 Fun.id) ~seed:1L
          (Computation.Stream.of_computation comp)
      with
      | Error m ->
          Alcotest.(check string) "hello refused" "groups must be >= 1" m
      | Ok _ -> Alcotest.fail "a zero-group session was accepted")

(* --- hostile client: bytes with no newline ------------------------ *)

(* Write [len] bytes of ['x'] — never a newline — to [fd]. *)
let send_junk fd len =
  let chunk = Bytes.make 65536 'x' in
  let left = ref len in
  try
    while !left > 0 do
      let k = min !left (Bytes.length chunk) in
      Protocol.write_all fd chunk ~pos:0 ~len:k;
      left := !left - k
    done
  with Protocol.Disconnected -> ()

let test_line_cap () =
  (* The reader itself: one byte past the cap raises, and the buffer
     stops growing at the cap plus one read chunk. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer = Thread.create (send_junk a) (Protocol.max_line + 1) in
  let rd = Protocol.reader b in
  (match Protocol.read_line_span rd with
  | exception Protocol.Line_too_long -> ()
  | _ -> Alcotest.fail "an over-long line was accepted");
  Alcotest.(check bool) "reader buffer bounded" true
    (Protocol.capacity rd <= Protocol.max_line + 65536);
  Thread.join writer;
  Unix.close a;
  Unix.close b;
  (* The daemon: it answers with an error line, then hangs up. *)
  with_server (fun addr ->
      let fd = Protocol.connect ~retry:5. addr in
      send_junk fd (Protocol.max_line + 1);
      let rd = Protocol.reader fd in
      (match Protocol.read_line rd with
      | Some l -> (
          match Protocol.decode_server l ~pos:0 ~len:(String.length l) with
          | Ok (Protocol.Error_msg { message }) ->
              Alcotest.(check string) "error message" "line too long" message
          | _ -> Alcotest.failf "expected an error line, got %S" l)
      | None -> Alcotest.fail "connection closed without an error line");
      Alcotest.(check (option string)) "then EOF" None (Protocol.read_line rd);
      Unix.close fd)

let () =
  Alcotest.run "serve"
    [
      ( "loopback",
        [
          Alcotest.test_case "every algo == offline" `Quick
            test_algos_vs_offline;
          Alcotest.test_case "spill path" `Quick test_spill;
          Alcotest.test_case "kill and reconnect" `Quick test_reconnect;
          Alcotest.test_case "concurrent sessions" `Quick test_concurrent;
          Alcotest.test_case "metrics stream" `Quick test_metrics;
          Alcotest.test_case "line cap" `Quick test_line_cap;
          Alcotest.test_case "busy session" `Quick test_busy;
          Alcotest.test_case "zero groups refused at hello" `Quick
            test_bad_groups;
        ] );
    ]
