open Wcp_trace
open Wcp_sim

let log = Logs.Src.create "wcp.token-vc" ~doc:"vector-clock token algorithm"

module Log = (val Logs.src_log log : Logs.LOG)

type mon = {
  k : int;  (* spec index *)
  queue : Snapshot.vc Queue.t;
  decoder : Wire.snap_decoder;  (* delta-snapshot channel state *)
  mutable app_done : bool;
  (* Token parked here while we wait for a fresh candidate. *)
  mutable held : (int array * Messages.color array) option;
  mutable last : Snapshot.vc option;  (* last candidate consumed *)
  mutable last_token_seq : int;  (* highest token hop accepted (dedup) *)
}

(* One token hop, shared by every sender of a §3 token (the monitors
   and, in the multi-token variant, the leader): one hop counter and
   one wire meter per run. *)
type hop = {
  net : Run_common.net;
  recorder : Wcp_obs.Recorder.t option;
  meter : Wire.token_meter option;  (* [None]: dense accounting *)
  bits : Messages.t -> int;
  count : int ref;
}

type monitors = {
  start_id : int;
  start_token : Messages.t Engine.ctx -> unit;
  hop : hop;
}

let hop monitors = monitors.hop

let hop_bits h ctx ~dst msg g =
  match h.meter with
  | Some mt -> Wire.token_bits mt ~src:(Engine.self ctx) ~dst g
  | None -> h.bits msg

let next_seq h =
  incr h.count;
  !(h.count)

let send_token h ctx ?wd ~dst msg_of_seq g =
  let seq = next_seq h in
  Log.debug (fun m ->
      m "t=%.3f token %d -> %d" (Engine.time ctx) (Engine.self ctx) dst);
  (match h.recorder with
  | None -> ()
  | Some r ->
      Wcp_obs.Recorder.emit r ~time:(Engine.time ctx) ~proc:(Engine.self ctx)
        (Wcp_obs.Event.Token_sent { seq; dst; g = Array.copy g }));
  let msg = msg_of_seq seq in
  let bits = hop_bits h ctx ~dst msg g in
  h.net.Run_common.send ctx ~bits ~dst msg;
  match wd with
  | None -> ()
  | Some wd ->
      (* The receiver mutates the arrays it gets: the watchdog keeps
         its own copy for regeneration. *)
      Run_common.watch h.net wd ctx ~seq ~dst ~bits (Messages.deep_copy msg)

let send_return h ctx ~dst msg_of_seq g =
  let msg = msg_of_seq (next_seq h) in
  h.net.Run_common.send ctx ~bits:(hop_bits h ctx ~dst msg g) ~dst msg

let first_red ?(among = fun _ -> true) color =
  let rec from j =
    if j = Array.length color then None
    else
      match color.(j) with
      | Messages.Red when among j -> Some j
      | Messages.Red | Messages.Green -> from (j + 1)
  in
  from 0

(* Executable check of Lemma 3.1 (parts 1-3) against the ground-truth
   computation; [g.(j) = 0] entries denote "no state selected yet" and
   are exempt, exactly as in the paper's statements. Runs once per
   token hop over width² state pairs, so it uses the unchecked
   happened-before: every non-zero [g.(j)] came from a snapshot of a
   real state and needs no bounds re-validation. *)
let check_invariants comp spec ~g ~color =
  let width = Spec.width spec in
  let state j = State.make ~proc:(Spec.proc spec j) ~index:g.(j) in
  let is_green j = match color.(j) with Messages.Green -> true | _ -> false in
  for i = 0 to width - 1 do
    (match color.(i) with
    | Messages.Red ->
        if g.(i) <> 0 then begin
          let dominated = ref false in
          for j = 0 to width - 1 do
            if j <> i && g.(j) <> 0
               && Computation.happened_before_unsafe comp (state i) (state j)
            then dominated := true
          done;
          if not !dominated then
            failwith
              (Printf.sprintf
                 "Lemma 3.1(1) violated: red state (%d,%d) precedes no candidate"
                 (Spec.proc spec i) g.(i))
        end
    | Messages.Green ->
        if g.(i) = 0 then failwith "Lemma 3.1: green entry with G = 0";
        for j = 0 to width - 1 do
          if j <> i && g.(j) <> 0
             && Computation.happened_before_unsafe comp (state i) (state j)
          then
            failwith
              (Printf.sprintf
                 "Lemma 3.1(2) violated: green state (%d,%d) precedes (%d,%d)"
                 (Spec.proc spec i) g.(i) (Spec.proc spec j) g.(j))
        done);
    (* Part 3 follows from part 2, but check it directly as well. *)
    for j = 0 to width - 1 do
      if i <> j && is_green i && is_green j
         && not (Computation.concurrent_unsafe comp (state i) (state j))
      then failwith "Lemma 3.1(3) violated: green candidates not concurrent"
    done
  done

let install engine ~n_app ~wcp_procs ?net ?(watchdog = fun _ -> None) ?forward
    ?(tag = fun s -> Checkpoint.Vc s) ?check ?recovery ?(stop = true)
    ?(start_at = 0) ?(delta = true) ~outcome ~hops ~snapshots () =
  let net = match net with Some n -> n | None -> Run_common.raw_net engine in
  (* Fetched once; every emission below is a single match when tracing
     is off (no closures, no event construction). *)
  let recorder = Engine.recorder engine in
  let width = Array.length wcp_procs in
  if width = 0 then invalid_arg "Token_vc.install: empty WCP";
  if start_at < 0 || start_at >= width then
    invalid_arg "Token_vc.install: start_at out of range";
  Array.iteri
    (fun k p ->
      if p < 0 || p >= n_app then invalid_arg "Token_vc.install: bad process";
      if k > 0 && wcp_procs.(k - 1) >= p then
        invalid_arg "Token_vc.install: procs must be strictly increasing")
    wcp_procs;
  let announce = Run_common.announce ~outcome ~stop in
  let bits = Messages.bits ~spec_width:width in
  let monitor_id k = Run_common.monitor_of ~n:n_app wcp_procs.(k) in
  let hop =
    {
      net;
      recorder;
      meter = (if delta then Some (Wire.token_meter ~width) else None);
      bits;
      count = hops;
    }
  in
  (* §3: the token goes to the first red monitor; all green means the
     cut is consistent and every local predicate holds. *)
  let to_first_red hop ctx k g color =
    match first_red color with
    | Some j ->
        send_token hop ctx ?wd:(watchdog k) ~dst:(monitor_id j)
          (fun seq -> Messages.Vc_token { seq; g; color })
          g
    | None ->
        Log.info (fun m ->
            m "t=%.3f WCP detected at monitor %d" (Engine.time ctx) k);
        (match recorder with
        | None -> ()
        | Some r ->
            Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
              ~proc:(Engine.self ctx)
              (Wcp_obs.Event.Detected
                 { procs = Array.copy wcp_procs; states = Array.copy g }));
        announce ctx
          (Detection.Detected
             (Cut.make ~procs:wcp_procs ~states:(Array.copy g)))
  in
  let forward = Option.value forward ~default:to_first_red in
  (* Fig. 3, run by the monitor currently holding the token. *)
  let rec process ctx m g color =
    match color.(m.k) with
    | Messages.Red -> (
      match Queue.take_opt m.queue with
      | None ->
          if m.app_done then begin
            (match recorder with
            | None -> ()
            | Some r ->
                Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                  ~proc:(Engine.self ctx) Wcp_obs.Event.No_detection_declared);
            announce ctx Detection.No_detection
          end
          else m.held <- Some (g, color)
      | Some cand ->
          Engine.charge_work ctx 1;
          m.last <- Some cand;
          if cand.Snapshot.clock.(m.k) > g.(m.k) then begin
            g.(m.k) <- cand.Snapshot.clock.(m.k);
            color.(m.k) <- Messages.Green;
            match recorder with
            | None -> ()
            | Some r ->
                Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                  ~proc:(Engine.self ctx)
                  (Wcp_obs.Event.Candidate_advanced
                     { k = m.k; proc = wcp_procs.(m.k); state = g.(m.k) })
          end;
          process ctx m g color)
    | Messages.Green ->
      (* Normally entered from the red branch, once this monitor's
         candidate has turned its entry green. A green entry with no
         candidate consumed ([m.last = None]) is not reached in the
         recovery sweep ([make recovery-soak]): the checkpoint taken
         after every handled message means a restore never rolls a
         monitor back past a token visit. Until exhaustive schedule
         exploration proves that case dead, forward the token
         unchanged rather than fail. *)
      (match m.last with
      | None -> ()
      | Some cand ->
          Engine.charge_work ctx width;
          for j = 0 to width - 1 do
            if j <> m.k && cand.Snapshot.clock.(j) >= g.(j) then begin
              (match recorder with
              | None -> ()
              | Some r ->
                  Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                    ~proc:(Engine.self ctx)
                    (Wcp_obs.Event.Vc_advanced
                       {
                         by_k = m.k;
                         by_proc = wcp_procs.(m.k);
                         by_state = cand.Snapshot.state;
                         by_clock = Array.copy cand.Snapshot.clock;
                         victim_k = j;
                         victim_proc = wcp_procs.(j);
                         victim_state = g.(j);
                         witness = cand.Snapshot.clock.(j);
                       }));
              g.(j) <- cand.Snapshot.clock.(j);
              color.(j) <- Messages.Red
            end
          done);
      (match check with Some f -> f ~g ~color | None -> ());
      forward hop ctx m.k g color
  in
  let resume ctx m =
    match m.held with
    | Some (g, color) ->
        m.held <- None;
        process ctx m g color
    | None -> ()
  in
  let on_message m ctx ~src msg =
    match msg with
    | Messages.Snap_vc _ | Messages.Snap_vc_delta _ ->
        let s = Wire.decode_snap m.decoder msg in
        incr snapshots;
        (match recorder with
        | None -> ()
        | Some r ->
            Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
              ~proc:(Engine.self ctx)
              (Wcp_obs.Event.Snapshot_arrived { src; state = s.Snapshot.state }));
        Queue.add s m.queue;
        Engine.note_space ctx (Queue.length m.queue * width);
        resume ctx m
    | Messages.App_done ->
        m.app_done <- true;
        resume ctx m
    | Messages.Vc_token { seq; g; color }
    | Messages.Group_token { seq; g; color; group = _ } ->
        (* Regenerated/duplicated tokens carry an already-seen hop
           number; processing one twice would corrupt the search. *)
        if seq > m.last_token_seq then begin
          m.last_token_seq <- seq;
          (match recorder with
          | None -> ()
          | Some r ->
              Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                ~proc:(Engine.self ctx) (Wcp_obs.Event.Token_received { seq }));
          process ctx m g color
        end
    | Messages.Wd_probe { seq } ->
        let reply =
          Messages.Wd_reply
            {
              seq;
              received = seq <= m.last_token_seq;
              holding = m.held <> None && seq = m.last_token_seq;
            }
        in
        Engine.send ctx ~bits:(bits reply) ~dst:src reply
    | Messages.Wd_reply { seq; received; holding } -> (
        match watchdog m.k with
        | Some wd -> Watchdog.on_reply wd ctx ~seq ~received ~holding
        | None -> ())
    | _ -> failwith "Token_vc: unexpected message at monitor"
  in
  let cells =
    Array.init width (fun k ->
        {
          k;
          queue = Queue.create ();
          decoder = Wire.snap_decoder ~width;
          app_done = false;
          held = None;
          last = None;
          last_token_seq = 0;
        })
  in
  (* Crash recovery: checkpoint the monitor cell plus any watchdog
     lease it owns. *)
  let capture =
    Run_common.wire_monitors engine net ?recovery cells
      ~id:(fun m -> monitor_id m.k)
      ~handler:on_message
      ~capture:(fun ~proc m ->
        ( tag
            {
              Checkpoint.v_queue = List.of_seq (Queue.to_seq m.queue);
              v_decoder = Wire.decoder_state m.decoder;
              v_app_done = m.app_done;
              v_held = m.held;
              v_last = m.last;
              v_last_seq = m.last_token_seq;
            },
          Run_common.lease (watchdog m.k) ~proc ))
      ~restore:(fun ctx m c ->
        (match c.Checkpoint.algo with
        | Checkpoint.Vc s | Checkpoint.Multi s ->
            Queue.clear m.queue;
            List.iter (fun x -> Queue.add x m.queue) s.Checkpoint.v_queue;
            Wire.restore_decoder m.decoder s.Checkpoint.v_decoder;
            m.app_done <- s.Checkpoint.v_app_done;
            m.held <- s.Checkpoint.v_held;
            m.last <- s.Checkpoint.v_last;
            m.last_token_seq <- s.Checkpoint.v_last_seq
        | _ -> failwith "Token_vc: checkpoint algorithm mismatch");
        Run_common.restore_lease net (watchdog m.k) ctx c.Checkpoint.watchdog)
  in
  {
    start_id = monitor_id start_at;
    start_token =
      (fun ctx ->
        (* The token starts fully red with G = 0: no state selected.
           §3.2: "the token can start on any process. Since the entire
           color vector is initialized to red, it must eventually visit
           every process at least once." *)
        let g = Array.make width 0 in
        let color = Array.make width Messages.Red in
        process ctx cells.(start_at) g color;
        (* The injected token is a handled message like any other: the
           starting monitor's checkpoint must include it. *)
        capture (monitor_id start_at) ctx);
    hop;
  }

let start engine monitors =
  Engine.schedule_initial engine ~proc:monitors.start_id ~at:0.0
    monitors.start_token

let detect ?network ?fault ?recorder ?(invariant_checks = false) ?start_at
    ?(options = Detection.default_options) ~seed comp spec =
  let { Detection.gated; delta } = options in
  let n = Computation.n comp in
  let width = Spec.width spec in
  let engine = Run_common.make_engine ?network ?fault ?recorder ~seed comp in
  Run_common.emit_run_meta engine ~algo:"token-vc" ~n ~width;
  let outcome = ref None in
  let hops = ref 0 in
  let snapshots = ref 0 in
  let check =
    if invariant_checks then Some (check_invariants comp spec) else None
  in
  let { Run_common.net; watchdog; recovery } =
    Run_common.chaos_wiring engine ~fault ~outcome
  in
  (* One watchdog, handed from monitor to monitor with the token. *)
  let wd = Option.map (fun make -> make ()) watchdog in
  let monitors =
    install engine ~n_app:n ~wcp_procs:(Spec.procs spec) ?net
      ~watchdog:(fun _ -> wd)
      ?check ?recovery ?start_at ~delta ~outcome ~hops ~snapshots ()
  in
  (* Application side: Fig. 2 snapshots, spec processes only. *)
  App_replay.install engine comp ?net
    ?app_bits:(if delta then Some (Wire.replay_app_bits comp spec) else None)
    ~snapshots:(fun p ->
      if Spec.mem spec p then Wire.encoded_stream ~gated ~delta comp spec ~proc:p
      else [])
    ~snapshot_dst:(fun p ->
      if Spec.mem spec p then Some (Run_common.monitor_of ~n p) else None)
    ~spec_width:width ();
  start engine monitors;
  let result =
    Run_common.finish ?fault engine ~outcome ~extras:Detection.no_extras
  in
  {
    result with
    extras = { result.extras with token_hops = !hops; snapshots = !snapshots };
  }
