(* The serve-feed workload: a [wcpdetect serve] daemon in its own
   process (one shard domain) fed sessions of medium traces by this
   process over at most two connections, mostly in wcp-frame/1 binary
   framing and every fourth session in JSONL, so Frame and Protocol
   decode, the Session ring and spill, the push-fed Slice.Incremental
   and detection at finish all sit on the path.

   Two phases share one daemon. Closed loop: both connections stream
   sessions back to back, uncapped; events_per_s comes from this phase.
   Open loop: sessions start on a fixed schedule at an offered rate well
   below saturation, each streamed at a fixed pace. A session's latency
   runs from when its finish was due to when its result arrived (in the
   closed loop the finish is due when it is sent), so a stall shows as
   latency even when it delays the sender; the latency percentiles pool
   both phases, because the open loop alone yields too few sessions for
   a steady p50 of a distribution that spans the six detectors. *)

open Wcp_trace
open Wcp_serve

(* Five n=16 traces of 10^5 events: three with an early cut, one late,
   one with none (detection at finish then simulates the whole slice). *)
let shapes =
  Inputs.
    [|
      { n = 16; sends = 3125; density = Early };
      { n = 16; sends = 3125; density = Late };
      { n = 16; sends = 3125; density = Early };
      { n = 16; sends = 3125; density = Never };
      { n = 16; sends = 3125; density = Early };
    |]

let chunk_events = 1024

let jsonl_every = 4

let is_jsonl k = k mod jsonl_every = jsonl_every - 1

type item = {
  c : Inputs.common;
  pred0 : bool array;
  expect_line : string;  (** [Detection.pp_outcome] of the oracle cut *)
  frames : string array;  (** binary frames of [chunk_events] events *)
  lines : string array;  (** JSONL [ev] lines, [chunk_events] a chunk *)
}

let encode comp =
  let enc = Frame.encoder ~events:chunk_events () in
  let frames = ref [] and lines = ref [] in
  let jb = Buffer.create (64 * chunk_events) in
  let flush () =
    if Frame.count enc > 0 then begin
      let b, len = Frame.contents enc in
      frames := Bytes.sub_string b 0 len :: !frames;
      Frame.reset enc;
      lines := Buffer.contents jb :: !lines;
      Buffer.clear jb
    end
  in
  Inputs.linearize comp ~emit:(fun ~proc op ~pred ->
      let kind, dst, msg =
        match op with
        | Computation.Send { dst; msg } ->
            Frame.add_send enc ~proc ~dst ~msg ~pred;
            (0, dst, msg)
        | Computation.Recv { msg } ->
            Frame.add_recv enc ~proc ~msg ~pred;
            (1, 0, msg)
      in
      Buffer.add_string jb
        (Protocol.encode_client (Protocol.Ev { proc; kind; dst; msg; pred }));
      Buffer.add_char jb '\n';
      if Frame.is_full enc then flush ());
  flush ();
  (Array.of_list (List.rev !frames), Array.of_list (List.rev !lines))

let setup_items ~seed =
  Array.mapi
    (fun i shape ->
      let comp = Inputs.generate shape ~seed:(Inputs.trace_seed ~seed i) in
      let c = Inputs.common shape comp in
      let frames, lines = encode comp in
      {
        c;
        pred0 =
          Array.init shape.Inputs.n (fun p ->
              Computation.pred comp (State.make ~proc:p ~index:1));
        expect_line =
          Format.asprintf "%a" Wcp_core.Detection.pp_outcome c.Inputs.expect;
        frames;
        lines;
      })
    shapes

let hello ~id ~algo ~jsonl item =
  Protocol.Hello
    {
      Protocol.session = id;
      n = item.c.Inputs.shape.Inputs.n;
      algo;
      procs = Inputs.all_procs item.c.Inputs.shape.Inputs.n;
      seed = 1L;
      groups = 2;
      pred0 = item.pred0;
      frames = (if jsonl then Protocol.Jsonl else Protocol.Binary);
      metrics_every = 0.;
    }

(* --- the daemon ---------------------------------------------------- *)

type daemon = { pid : int; addr : Protocol.addr }

let ring = 4096

let start_daemon ~exe ~dir =
  let sock = Filename.concat dir "s.sock" and spool = Filename.concat dir "spool" in
  if not (Sys.file_exists spool) then Sys.mkdir spool 0o700;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--listen"; "unix:" ^ sock; "--domains"; "1"; "--ring";
        string_of_int ring; "--spool"; spool; "--silent";
      |]
      null Unix.stderr Unix.stderr
  in
  Unix.close null;
  let addr = Protocol.Unix_sock sock in
  (* ready once it accepts a connection *)
  Unix.close (Protocol.connect ~retry:20. addr);
  { pid; addr }

let rec waitpid_timeout pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Probe.now () < deadline ->
      Unix.sleepf 0.02;
      waitpid_timeout pid deadline
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_timeout pid deadline
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM, then a throwaway connection: an idle daemon only acts on the
   signal once its accept thread wakes. SIGKILL if it still lingers. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try Unix.close (Protocol.connect d.addr) with Unix.Unix_error _ -> ());
  if not (waitpid_timeout d.pid (Probe.now () +. 5.)) then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (waitpid_timeout d.pid (Probe.now () +. 10.))
  end

let proc_status_kb pid field =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | l when String.starts_with ~prefix:(field ^ ":") l ->
            Scanf.sscanf
              (String.sub l (String.length field + 1)
                 (String.length l - String.length field - 1))
              " %d" Fun.id
        | _ -> go ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

(* Reset the kernel's peak-RSS mark so VmHWM covers the timed window
   only; false where /proc refuses (VmHWM then spans the daemon's life). *)
let reset_peak_rss d =
  match open_out (Printf.sprintf "/proc/%d/clear_refs" d.pid) with
  | oc -> (
      try
        output_string oc "5";
        close_out oc;
        true
      with Sys_error _ -> false)
  | exception Sys_error _ -> false

(* --- one session over the socket ------------------------------------- *)

type outcome = {
  ok : bool;
  events : int;
  no_cut : bool;  (** the reference has no cut *)
  latency : float;  (** seconds from finish due to result *)
  late : float;  (** seconds the finish was sent after it was due *)
  server_detect : float;  (** the daemon's own finish-to-result time *)
  backlog : int;  (** largest ring occupancy announced by credit lines *)
}

exception Session_failed of string

(* Stream [item] as session [id]. With [pace = Some (start_due, eps)]
   chunk [j] is due at [start_due + j * chunk_events / eps] and the
   finish at [start_due + events / eps]; without, everything goes out
   back to back and the finish is due when it is sent. *)
let run_session d ~id ~algo ~jsonl ?pace item =
  let fd = Protocol.connect ~retry:5. d.addr in
  let rd = Protocol.reader fd in
  let backlog = ref 0 and result = ref None in
  let handle line =
    match Protocol.decode_server line ~pos:0 ~len:(String.length line) with
    | Ok (Protocol.Credit { credit; _ }) -> backlog := max !backlog (ring - credit)
    | Ok (Protocol.Result { outcome; lat_ns; _ }) -> result := Some (outcome, lat_ns)
    | Ok (Protocol.Error_msg { message }) -> raise (Session_failed message)
    | Ok _ -> ()
    | Error m -> raise (Session_failed ("bad server line: " ^ m))
  in
  let read_one () =
    match Protocol.read_line rd with
    | Some l -> handle l
    | None -> raise (Session_failed "server closed the connection")
  in
  let rec drain_ready () =
    if
      Protocol.has_buffered_line rd
      || match Unix.select [ fd ] [] [] 0. with [], _, _ -> false | _ -> true
    then begin
      read_one ();
      drain_ready ()
    end
  in
  let write s = Protocol.write_all fd (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write (Protocol.encode_client (hello ~id ~algo ~jsonl item) ^ "\n");
      (match Protocol.read_line rd with
      | Some l -> (
          match Protocol.decode_server l ~pos:0 ~len:(String.length l) with
          | Ok (Protocol.Welcome _) -> ()
          | _ -> raise (Session_failed ("no welcome: " ^ l)))
      | None -> raise (Session_failed "no welcome"));
      let chunks = if jsonl then item.lines else item.frames in
      let events = item.c.Inputs.events in
      let due_at j =
        match pace with
        | Some (t0, eps) -> t0 +. (float_of_int (j * chunk_events) /. eps)
        | None -> 0.
      in
      Array.iteri
        (fun j chunk ->
          let wait = due_at j -. Probe.now () in
          if wait > 0. then Unix.sleepf wait;
          write chunk;
          drain_ready ())
        chunks;
      let finish_due =
        match pace with
        | Some (t0, eps) ->
            let due = t0 +. (float_of_int events /. eps) in
            let wait = due -. Probe.now () in
            if wait > 0. then Unix.sleepf wait;
            due
        | None -> Probe.now ()
      in
      let sent = Probe.now () in
      if jsonl then write (Protocol.encode_client Protocol.Finish ^ "\n")
      else write (Bytes.to_string Frame.finish_frame);
      while !result = None do
        read_one ()
      done;
      let t = Probe.now () in
      match !result with
      | None -> assert false
      | Some (outcome, lat_ns) ->
          {
            ok = outcome = item.expect_line;
            events;
            no_cut = Inputs.no_cut item.c;
            latency = t -. finish_due;
            late = sent -. finish_due;
            server_detect = float_of_int lat_ns /. 1e9;
            backlog = !backlog;
          })

let session_ids = Atomic.make 0

(* Session [k] of a phase: trace [k mod 5], detector [k mod 6], JSONL
   every fourth. A refused or failed session is an [Error]. *)
let session d items ?pace k =
  let id = Printf.sprintf "s%d" (Atomic.fetch_and_add session_ids 1) in
  let item = items.(k mod Array.length items) in
  try
    Ok
      (run_session d ~id ~algo:(Inputs.algo_of k) ~jsonl:(is_jsonl k) ?pace item)
  with
  | Session_failed m -> Error m
  | Protocol.Disconnected -> Error "disconnected"
  | Unix.Unix_error (e, fn, _) -> Error (fn ^ ": " ^ Unix.error_message e)

let connections = 2

(* Run [body c] on [connections] threads and wait for them. *)
let on_connections body =
  List.init connections (fun c -> Thread.create body c) |> List.iter Thread.join

type phase = {
  results : (outcome, string) result list;
  elapsed : float;  (** window start to last result *)
}

(* Results of both connections, and when the last one arrived. *)
let collect () =
  let mu = Mutex.create () and acc = ref [] and last = ref 0. in
  let add r =
    Mutex.protect mu (fun () ->
        acc := r :: !acc;
        last := Probe.now ())
  in
  (add, fun t0 -> { results = List.rev !acc; elapsed = !last -. t0 })

(* Closed loop: each connection takes the next session as soon as its
   previous result is in, until [secs] have passed. *)
let closed_loop d items ~secs =
  let next = Atomic.make 0 and add, get = collect () in
  let t0 = Probe.now () in
  on_connections (fun _ ->
      while Probe.now () -. t0 < secs do
        add (session d items (Atomic.fetch_and_add next 1))
      done);
  get t0

(* Offered load of the open loop: a session every [gap] seconds, each
   streamed at [pace] events/s: 2 x 10^5 events/s offered in all, about
   40% of the one-domain daemon's closed-loop throughput on two cores.
   The pace is below the daemon's drain rate, so a session's latency is
   its detection at finish plus whatever wait other sessions impose. *)
let gap = 0.5

let pace = 250_000.

(* Open loop: session [j] is due at [t0 + j * gap] whether or not the
   previous ones finished; connection [c] serves the sessions j = c mod 2
   in order, so a stall makes later sessions start late. *)
let open_loop d items ~secs =
  let count = max connections (int_of_float (secs /. gap)) in
  let add, get = collect () in
  let t0 = Probe.now () +. 0.05 in
  on_connections (fun c ->
      let j = ref c in
      while !j < count do
        let due = t0 +. (float_of_int !j *. gap) in
        let wait = due -. Probe.now () in
        if wait > 0. then Unix.sleepf wait;
        add (session d items ~pace:(due, pace) !j);
        j := !j + connections
      done);
  get t0

(* --- in-process layer attribution ------------------------------------- *)

(* The daemon cannot be traced without touching the program, so the
   traced run drives the same Session calls in-process on the same
   encoded chunks: decode a chunk (Frame or JSONL) into batch arrays,
   Session.push_batch it, Session.drain the ring into the incremental
   slice, and Session.detect at finish, as one shard worker would. *)
let run_inprocess k ~dir item =
  let algo = Inputs.algo_of k and jsonl = is_jsonl k in
  let n = item.c.Inputs.shape.Inputs.n and events = item.c.Inputs.events in
  Probe.op_span k "bench.session" ~events (fun () ->
      let cfg =
        {
          Session.id = Printf.sprintf "inproc%d" k;
          n;
          algo;
          procs = Inputs.all_procs n;
          seed = 1L;
          groups = 2;
          pred0 = item.pred0;
          metrics_every = 0.;
          ring;
          spill_path = Filename.concat dir (Printf.sprintf "inproc%d.spill" k);
        }
      in
      let sess =
        match Session.create cfg with
        | Ok s -> s
        | Error m -> raise (Session_failed m)
      in
      Fun.protect
        ~finally:(fun () -> Session.close sess)
        (fun () ->
          let words = Array.make chunk_events 0
          and metas = Array.make chunk_events 0
          and cnt = ref 0 in
          let stage ~proc ~pred ~word =
            words.(!cnt) <- word;
            metas.(!cnt) <- (proc lsl 1) lor if pred then 1 else 0;
            incr cnt
          in
          let dec = Frame.decoder ~on_event:stage in
          let decode_jsonl s =
            let len = String.length s in
            let rec go pos =
              if pos < len then begin
                let e = String.index_from s pos '\n' in
                (match Protocol.decode_client s ~pos ~len:(e - pos) with
                | Ok (Protocol.Ev { proc; kind; dst; msg; pred }) ->
                    stage ~proc ~pred
                      ~word:
                        (if kind = 1 then Btrace.pack_recv ~msg
                         else Btrace.pack_send ~dst ~msg)
                | _ -> raise (Session_failed "bad ev line"));
                go (e + 1)
              end
            in
            go 0
          in
          let drain () =
            let rec go () =
              match Session.drain sess ~max:chunk_events with
              | Session.Drained _ -> go ()
              | Session.Ready | Session.Idle -> ()
            in
            go ()
          in
          let chunks = if jsonl then item.lines else item.frames in
          Array.iteri
            (fun j chunk ->
              cnt := 0;
              let events = min chunk_events (events - (j * chunk_events)) in
              if jsonl then
                Probe.span ~events "serve.jsonl_decode" (fun () ->
                    decode_jsonl chunk)
              else
                Probe.span ~events "trace.frame_decode" (fun () ->
                    Frame.feed dec (Bytes.unsafe_of_string chunk) ~pos:0
                      ~len:(String.length chunk));
              let c = !cnt in
              Probe.span ~events:c "serve.push_batch" (fun () ->
                  Session.push_batch sess ~words ~metas c);
              Probe.span ~events:c "serve.drain" drain)
            chunks;
          Session.request_finish sess;
          drain ();
          match
            Probe.span "serve.detect" (fun () ->
                Session.detect sess ~on_metrics:None)
          with
          | Protocol.Result { outcome; events; msgs; bits; _ } ->
              (outcome = item.expect_line, (events, msgs, bits))
          | Protocol.Error_msg { message } -> raise (Session_failed message)
          | _ -> raise (Session_failed "unexpected detect reply")))
