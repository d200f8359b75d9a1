open Wcp_trace
open Wcp_sim

type candidate = { state : int; clock : int array; counts : int array }

let detect ?network ?recorder ~seed ~channels comp spec =
  let n = Computation.n comp in
  let holds =
    List.map
      (fun cp ->
        match Gcp.count_based cp with
        | Some f -> f
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Checker_gcp: %s is not a counting predicate" (Gcp.name cp)))
      channels
    |> Array.of_list
  in
  let endpoints = Array.of_list (List.map Gcp.endpoints channels) in
  Array.iter
    (fun (s, d) ->
      if s < 0 || s >= n || d < 0 || d >= n then
        invalid_arg "Checker_gcp: channel endpoint out of range")
    endpoints;
  let forced = Array.of_list (List.map Gcp.forced_endpoint channels) in
  let names = Array.of_list (List.map Gcp.name channels) in
  let engine = Run_common.make_engine ?network ?recorder ~seed comp in
  Run_common.emit_run_meta engine ~algo:"gcp" ~n ~width:n;
  (* Fetched once; tracing off means every hook below is one match. *)
  let recorder = Engine.recorder engine in
  let checker = Run_common.extra_id ~n in
  let outcome = ref None in
  let snapshots_seen = ref 0 in
  let announce = Run_common.announce ~outcome in
  let queues : candidate Queue.t array = Array.init n (fun _ -> Queue.create ()) in
  let finished = Array.make n false in
  let cand : candidate option array = Array.make n None in
  let queued_words = ref 0 in
  let snap_words = n + Array.length endpoints + 1 in
  (* (p, a) happened before (q, b) iff b's full clock has seen a. *)
  let hb p (a : candidate) (b : candidate) = b.clock.(p) >= a.clock.(p) in
  let emit_hb ctx ~victim_p ~by_p =
    match recorder with
    | None -> ()
    | Some r -> (
        match (cand.(victim_p), cand.(by_p)) with
        | Some (v : candidate), Some (b : candidate) ->
            Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
              ~proc:(Engine.self ctx)
              (Wcp_obs.Event.Hb_eliminated
                 {
                   victim_k = victim_p;
                   victim_proc = victim_p;
                   victim_state = v.state;
                   victim_clock = Array.copy v.clock;
                   by_k = by_p;
                   by_proc = by_p;
                   by_state = b.state;
                   by_clock = Array.copy b.clock;
                 })
        | _ -> ())
  in
  let fill ctx p =
    let c = Queue.pop queues.(p) in
    queued_words := !queued_words - snap_words;
    cand.(p) <- Some c;
    Engine.charge_work ctx n;
    let q = ref 0 in
    while cand.(p) <> None && !q < n do
      (if !q <> p then
         match cand.(!q) with
         | Some other ->
             if hb p c other then begin
               emit_hb ctx ~victim_p:p ~by_p:!q;
               cand.(p) <- None
             end
             else if hb !q other c then begin
               emit_hb ctx ~victim_p:!q ~by_p:p;
               cand.(!q) <- None
             end
         | None -> ());
      incr q
    done
  in
  (* At a full, pairwise-concurrent candidate cut, find a violated
     channel predicate and eliminate its forced endpoint. *)
  let channel_eliminate ctx =
    let in_flight c =
      let s, d = endpoints.(c) in
      let sent =
        match cand.(s) with Some x -> x.counts.(c) | None -> assert false
      in
      let received =
        match cand.(d) with Some x -> x.counts.(c) | None -> assert false
      in
      sent - received
    in
    let rec scan c =
      if c = Array.length endpoints then false
      else begin
        Engine.charge_work ctx 1;
        if holds.(c) (in_flight c) then scan (c + 1)
        else begin
          (match recorder with
          | None -> ()
          | Some r ->
              let victim_state =
                match cand.(forced.(c)) with
                | Some x -> x.state
                | None -> assert false
              in
              Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                ~proc:(Engine.self ctx)
                (Wcp_obs.Event.Channel_eliminated
                   {
                     channel = names.(c);
                     victim_proc = forced.(c);
                     victim_state;
                   }));
          cand.(forced.(c)) <- None;
          true
        end
      end
    in
    scan 0
  in
  let rec drive ctx =
    let progressed = ref false in
    for p = 0 to n - 1 do
      if cand.(p) = None && not (Queue.is_empty queues.(p)) then begin
        fill ctx p;
        progressed := true
      end
    done;
    if !progressed then drive ctx
    else if Array.for_all Option.is_some cand then begin
      if channel_eliminate ctx then drive ctx
      else
        let states =
          Array.map
            (function Some (c : candidate) -> c.state | None -> assert false)
            cand
        in
        begin
          (match recorder with
          | None -> ()
          | Some r ->
              Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                ~proc:(Engine.self ctx)
                (Wcp_obs.Event.Detected
                   { procs = Array.init n Fun.id; states }));
          announce ctx
            (Detection.Detected
               (Cut.make ~procs:(Array.init n Fun.id) ~states))
        end
    end
    else if
      Array.exists
        (fun p -> cand.(p) = None && Queue.is_empty queues.(p) && finished.(p))
        (Array.init n Fun.id)
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
    match msg with
    | Messages.Snap_gcp { state; clock; counts } ->
        incr snapshots_seen;
        (match recorder with
        | None -> ()
        | Some r ->
            Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
              ~proc:(Engine.self ctx)
              (Wcp_obs.Event.Snapshot_arrived { src; state }));
        Queue.add { state; clock; counts } queues.(src);
        queued_words := !queued_words + snap_words;
        Engine.note_space ctx !queued_words;
        drive ctx
    | Messages.App_done ->
        finished.(src) <- true;
        drive ctx
    | _ -> failwith "Checker_gcp: unexpected message"
  in
  Engine.set_handler engine checker on_message;
  let channel_pairs = Array.to_list endpoints in
  App_replay.install engine comp
    ~snapshots:(fun p ->
      List.map
        (fun (state, clock, counts) ->
          (state, Messages.Snap_gcp { state; clock; counts }))
        (Snapshot.gcp_stream comp spec ~channels:channel_pairs ~proc:p))
    ~snapshot_dst:(fun _ -> Some checker)
    ~spec_width:n ();
  let result = Run_common.finish engine ~outcome ~extras:Detection.no_extras in
  { result with extras = { result.extras with snapshots = !snapshots_seen } }
