open Wcp_trace
open Wcp_sim

let detect ?network ?recorder ?(options = Detection.default_options) ~seed
    comp spec =
  let { Detection.gated; delta } = options in
  let n = Computation.n comp in
  let width = Spec.width spec in
  let engine = Run_common.make_engine ?network ?recorder ~seed comp in
  Run_common.emit_run_meta engine ~algo:"checker" ~n ~width;
  (* Fetched once; tracing off means every hook below is one match. *)
  let recorder = Engine.recorder engine in
  let checker = Run_common.extra_id ~n in
  let outcome = ref None in
  let snapshots_seen = ref 0 in
  let announce = Run_common.announce ~outcome in
  let queues = Array.init width (fun _ -> Queue.create ()) in
  (* One decode cache per inbound (spec process -> checker) channel. *)
  let decoders = Array.init width (fun _ -> Wire.snap_decoder ~width) in
  let finished = Array.make width false in
  let cand : Snapshot.vc option array = Array.make width None in
  let queued_words = ref 0 in
  (* (k, a) happened before (l, b) iff b's clock has seen a's state. *)
  let hb k (a : Snapshot.vc) (b : Snapshot.vc) = b.clock.(k) >= a.clock.(k) in
  let emit_hb ctx ~victim_k ~by_k =
    match recorder with
    | None -> ()
    | Some r -> (
        match (cand.(victim_k), cand.(by_k)) with
        | Some (v : Snapshot.vc), Some (b : Snapshot.vc) ->
            Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
              ~proc:(Engine.self ctx)
              (Wcp_obs.Event.Hb_eliminated
                 {
                   victim_k;
                   victim_proc = Spec.proc spec victim_k;
                   victim_state = v.state;
                   victim_clock = Array.copy v.clock;
                   by_k;
                   by_proc = Spec.proc spec by_k;
                   by_state = b.state;
                   by_clock = Array.copy b.clock;
                 })
        | _ -> ())
  in
  let fill ctx k =
    let c = Queue.pop queues.(k) in
    queued_words := !queued_words - (width + 1);
    cand.(k) <- Some c;
    Engine.charge_work ctx width;
    (* Compare the fresh candidate against every standing one;
       eliminate whichever side happened before the other. Standing
       candidates are pairwise concurrent by induction, so at most the
       fresh candidate dies, possibly killing several stale peers
       first. *)
    let l = ref 0 in
    while cand.(k) <> None && !l < width do
      (if !l <> k then
         match cand.(!l) with
         | Some other ->
             if hb k c other then begin
               emit_hb ctx ~victim_k:k ~by_k:!l;
               cand.(k) <- None
             end
             else if hb !l other c then begin
               emit_hb ctx ~victim_k:!l ~by_k:k;
               cand.(!l) <- None
             end
         | None -> ());
      incr l
    done
  in
  let rec drive ctx =
    let progressed = ref false in
    for k = 0 to width - 1 do
      if cand.(k) = None && not (Queue.is_empty queues.(k)) then begin
        fill ctx k;
        progressed := true
      end
    done;
    if !progressed then drive ctx
    else if Array.for_all Option.is_some cand then
      let states =
        Array.map
          (function Some (c : Snapshot.vc) -> c.state | None -> assert false)
          cand
      in
      begin
        (match recorder with
        | None -> ()
        | Some r ->
            Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
              ~proc:(Engine.self ctx)
              (Wcp_obs.Event.Detected
                 { procs = Array.copy (Spec.procs spec); states }));
        announce ctx
          (Detection.Detected (Cut.make ~procs:(Spec.procs spec) ~states))
      end
    else if
      Array.exists
        (fun k -> cand.(k) = None && Queue.is_empty queues.(k) && finished.(k))
        (Array.init width Fun.id)
    then begin
      (match recorder with
      | None -> ()
      | Some r ->
          Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
            ~proc:(Engine.self ctx) Wcp_obs.Event.No_detection_declared);
      announce ctx Detection.No_detection
    end
  in
  let on_message ctx ~src msg =
    let k = Spec.index_of spec (src : int) in
    match msg with
    | Messages.Snap_vc _ | Messages.Snap_vc_delta _ ->
        let s = Wire.decode_snap decoders.(k) msg in
        incr snapshots_seen;
        (match recorder with
        | None -> ()
        | Some r ->
            Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
              ~proc:(Engine.self ctx)
              (Wcp_obs.Event.Snapshot_arrived { src; state = s.Snapshot.state }));
        Queue.add s queues.(k);
        queued_words := !queued_words + width + 1;
        Engine.note_space ctx !queued_words;
        drive ctx
    | Messages.App_done ->
        finished.(k) <- true;
        drive ctx
    | _ -> failwith "Checker: unexpected message"
  in
  Engine.set_handler engine checker on_message;
  App_replay.install engine comp
    ?app_bits:(if delta then Some (Wire.replay_app_bits comp spec) else None)
    ~snapshots:(fun p ->
      if Spec.mem spec p then Wire.encoded_stream ~gated ~delta comp spec ~proc:p
      else [])
    ~snapshot_dst:(fun p -> if Spec.mem spec p then Some checker else None)
    ~spec_width:width ();
  let result = Run_common.finish engine ~outcome ~extras:Detection.no_extras in
  {
    result with
    extras = { result.extras with snapshots = !snapshots_seen };
  }
