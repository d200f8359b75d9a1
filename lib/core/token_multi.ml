open Wcp_trace
open Wcp_sim

type leader = {
  merged_g : int array;
  merged_color : Messages.color array;
  mutable outstanding : int;
  (* Highest return hop merged per group: a replayed or regenerated
     [Group_return] repeats its hop number, and merging one twice would
     double-decrement [outstanding]. *)
  returns_seen : int array;
}

type assignment = Round_robin | Blocks

let detect ?network ?fault ?recorder ?(assignment = Round_robin)
    ?(options = Detection.default_options) ~groups ~seed comp spec =
  let { Detection.gated; delta } = options in
  let n = Computation.n comp in
  let width = Spec.width spec in
  if groups < 1 || groups > width then
    invalid_arg "Token_multi.detect: groups out of range";
  let engine = Run_common.make_engine ?network ?fault ?recorder ~seed comp in
  Run_common.emit_run_meta engine ~algo:"token-multi" ~n ~width;
  (* Fetched once; tracing off means every hook below is one match. *)
  let recorder = Engine.recorder engine in
  let leader_id = Run_common.extra_id ~n in
  let outcome = ref None in
  let hops = ref 0 in
  let merges = ref 0 in
  let snapshots = ref 0 in
  let { Run_common.net; watchdog; recovery } =
    Run_common.chaos_wiring engine ~fault ~outcome
  in
  let monitor_id k = Run_common.monitor_of ~n (Spec.proc spec k) in
  let group_of =
    match assignment with
    | Round_robin -> fun k -> k mod groups
    | Blocks -> fun k -> min (groups - 1) (k * groups / width)
  in
  (* Each group monitor guards the hops it forwards. The leader may
     have one token in flight per group, so it owns one watchdog per
     group (a watchdog tracks a single token). *)
  let make_wd _ = Option.map (fun make -> make ()) watchdog in
  let monitor_wds = Array.init width make_wd in
  let leader_wds = Array.init groups make_wd in
  (* §3.5: the §3 monitor, except that a group token moves only to red
     monitors of its own group and otherwise returns to the leader. *)
  let forward hop ctx k g color =
    let group = group_of k in
    match Token_vc.first_red ~among:(fun j -> group_of j = group) color with
    | Some j ->
        Token_vc.send_token hop ctx ?wd:monitor_wds.(k) ~dst:(monitor_id j)
          (fun seq -> Messages.Group_token { seq; g; color; group })
          g
    | None ->
        Token_vc.send_return hop ctx ~dst:leader_id
          (fun seq -> Messages.Group_return { seq; g; color; group })
          g
  in
  let monitors =
    Token_vc.install engine ~n_app:n ~wcp_procs:(Spec.procs spec) ?net
      ~watchdog:(fun k -> monitor_wds.(k))
      ~forward
      ~tag:(fun s -> Checkpoint.Multi s)
      ?recovery ~delta ~outcome ~hops ~snapshots ()
  in
  let hop = Token_vc.hop monitors in
  (* Leader: merge returned tokens, re-dispatch into groups that still
     contain red entries (paper §3.5). *)
  let ld =
    {
      merged_g = Array.make width 0;
      merged_color = Array.make width Messages.Red;
      outstanding = 0;
      returns_seen = Array.make groups 0;
    }
  in
  let dispatch ctx =
    incr merges;
    (match recorder with
    | None -> ()
    | Some r ->
        Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
          ~proc:(Engine.self ctx) (Wcp_obs.Event.Merged { round = !merges }));
    if Array.for_all (fun c -> c = Messages.Green) ld.merged_color then begin
      (match recorder with
      | None -> ()
      | Some r ->
          Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
            ~proc:(Engine.self ctx)
            (Wcp_obs.Event.Detected
               {
                 procs = Array.copy (Spec.procs spec);
                 states = Array.copy ld.merged_g;
               }));
      Run_common.announce ~outcome ctx
        (Detection.Detected
           (Cut.make ~procs:(Spec.procs spec) ~states:(Array.copy ld.merged_g)))
    end
    else
      for gr = 0 to groups - 1 do
        match
          Token_vc.first_red ~among:(fun j -> group_of j = gr) ld.merged_color
        with
        | Some j ->
            ld.outstanding <- ld.outstanding + 1;
            let g = Array.copy ld.merged_g in
            let color = Array.copy ld.merged_color in
            Token_vc.send_token hop ctx ?wd:leader_wds.(gr) ~dst:(monitor_id j)
              (fun seq -> Messages.Group_token { seq; g; color; group = gr })
              g
        | None -> ()
      done
  in
  let on_leader ctx ~src:_ msg =
    match msg with
    | Messages.Group_return { seq; g; color; group } ->
        if seq > ld.returns_seen.(group) then begin
          ld.returns_seen.(group) <- seq;
          Engine.charge_work ctx width;
          for j = 0 to width - 1 do
            if g.(j) > ld.merged_g.(j) then begin
              ld.merged_g.(j) <- g.(j);
              ld.merged_color.(j) <- color.(j)
            end
            else if g.(j) = ld.merged_g.(j) && color.(j) = Messages.Red then
              ld.merged_color.(j) <- Messages.Red
          done;
          ld.outstanding <- ld.outstanding - 1;
          if ld.outstanding = 0 then dispatch ctx
        end
    | Messages.Wd_reply { seq; received; holding } ->
        (* Route by sequence number: only the watchdog watching [seq]
           reacts, the rest ignore the reply. *)
        Array.iter
          (function
            | Some wd -> Watchdog.on_reply wd ctx ~seq ~received ~holding
            | None -> ())
          leader_wds
    | _ -> failwith "Token_multi: unexpected message at leader"
  in
  (Option.value net ~default:(Run_common.raw_net engine)).Run_common.set_handler
    leader_id on_leader;
  App_replay.install engine comp ?net
    ?app_bits:(if delta then Some (Wire.replay_app_bits comp spec) else None)
    ~snapshots:(fun p ->
      if Spec.mem spec p then Wire.encoded_stream ~gated ~delta comp spec ~proc:p
      else [])
    ~snapshot_dst:(fun p ->
      if Spec.mem spec p then Some (Run_common.monitor_of ~n p) else None)
    ~spec_width:width ();
  Engine.schedule_initial engine ~proc:leader_id ~at:0.0 dispatch;
  let result =
    Run_common.finish ?fault engine ~outcome ~extras:Detection.no_extras
  in
  {
    result with
    extras =
      {
        result.extras with
        token_hops = !hops;
        snapshots = !snapshots;
        merges = !merges;
      };
  }
