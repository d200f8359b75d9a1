open Wcp_trace
open Wcp_sim

let monitor_of ~n p = n + p

let extra_id ~n = 2 * n

let default_network ~n =
  let fifo ~src ~dst =
    src < n && (dst = monitor_of ~n src || dst = extra_id ~n)
  in
  Network.create ~fifo ~latency:(Network.Uniform (0.5, 1.5)) ()

let make_engine_n ?network ?fault ?recorder ~seed ~n () =
  let network = match network with Some nw -> nw | None -> default_network ~n in
  Engine.create ~network ?fault ?recorder ~num_processes:((2 * n) + 1) ~seed ()

let make_engine ?network ?fault ?recorder ~seed comp =
  make_engine_n ?network ?fault ?recorder ~seed ~n:(Computation.n comp) ()

(* Every detector opens its recorded log with the same prologue so
   consumers can map engine ids to P_i / M_i roles. The "build" phase
   mark right after it opens the wiring/setup phase of the telemetry
   profile; [finish] closes it with the "detect" mark. *)
let emit_run_meta engine ~algo ~n ~width =
  match Engine.recorder engine with
  | None -> ()
  | Some r ->
      Wcp_obs.Recorder.emit r ~time:0.0 ~proc:(-1)
        (Wcp_obs.Event.Run_meta { algo; n; width });
      Wcp_obs.Recorder.emit r ~time:0.0 ~proc:(-1)
        (Wcp_obs.Event.Phase_marked { name = "build" })

type net = {
  send : Messages.t Engine.ctx -> bits:int -> dst:int -> Messages.t -> unit;
  set_handler :
    int -> (Messages.t Engine.ctx -> src:int -> Messages.t -> unit) -> unit;
}

let raw_net engine =
  {
    send = (fun ctx ~bits ~dst msg -> Engine.send ctx ~bits ~dst msg);
    set_handler = (fun id h -> Engine.set_handler engine id h);
  }

(* --- Crash-recovery wiring (Fault.Restart windows) ---------------- *)

type recovery = {
  transport : Messages.t Transport.t;
  restarts : Fault.window list;
}

let wire_recovery engine (r : recovery) ~owns ~capture ~restore =
  let store : (int, string) Hashtbl.t = Hashtbl.create 4 in
  let procs =
    List.filter_map
      (fun (w : Fault.window) ->
        if owns w.Fault.proc then Some w.Fault.proc else None)
      r.restarts
    |> List.sort_uniq compare
  in
  let snap ?ctx proc =
    let algo, watchdog = capture proc in
    let c =
      {
        Checkpoint.proc;
        algo;
        transport = Transport.export_state r.transport ~proc;
        watchdog;
      }
    in
    let s = Checkpoint.encode c in
    Hashtbl.replace store proc s;
    match ctx with
    | None -> ()
    | Some ctx -> (
        Stats.note_checkpoint (Engine.stats_of ctx);
        match Engine.recorder_of ctx with
        | None -> ()
        | Some rc ->
            Wcp_obs.Recorder.emit rc ~time:(Engine.time ctx) ~proc
              (Wcp_obs.Event.Checkpoint_taken { bytes = String.length s }))
  in
  (* Seed every restarting proc with its pre-run state, so a window
     that opens before the first handled message still restores. *)
  List.iter (fun p -> snap p) procs;
  (* One restore timer per window, at its recovery time [until_t]. The
     timer was scheduled at setup, so at [until_t] it runs before any
     message the window deferred to the same instant (insertion
     order), and the deferred deliveries find the restored state. *)
  List.iter
    (fun (w : Fault.window) ->
      if owns w.Fault.proc then
        match w.Fault.until_t with
        | None -> ()
        | Some at ->
            Engine.schedule_initial engine ~proc:w.Fault.proc ~at (fun ctx ->
                match Hashtbl.find_opt store w.Fault.proc with
                | None -> ()
                | Some s ->
                    let c = Checkpoint.decode s in
                    restore ctx c;
                    Transport.restore_state r.transport ~proc:w.Fault.proc
                      c.Checkpoint.transport;
                    Stats.note_restore (Engine.stats_of ctx);
                    (match Engine.recorder_of ctx with
                    | None -> ()
                    | Some rc ->
                        Wcp_obs.Recorder.emit rc ~time:(Engine.time ctx)
                          ~proc:w.Fault.proc
                          (Wcp_obs.Event.Restored { bytes = String.length s });
                        Wcp_obs.Recorder.emit rc ~time:(Engine.time ctx)
                          ~proc:(-1)
                          (Wcp_obs.Event.Phase_marked { name = "recovery" }));
                    Transport.reconnect r.transport ctx ~proc:w.Fault.proc))
    r.restarts;
  fun proc ctx -> if Hashtbl.mem store proc then snap ~ctx proc

(* Install [handler] for every monitor cell and, under a recovery
   bundle, capture after each handled message. The returned hook
   captures on demand (a no-op without recovery): a detector that
   injects its initial token outside any handler must checkpoint it
   too, or a restart before the token's first real hop restores a
   token-less seed and the token is lost with the crash. *)
let wire_monitors engine net ?recovery cells ~id ~handler ~capture ~restore =
  match recovery with
  | None ->
      Array.iter (fun m -> net.set_handler (id m) (handler m)) cells;
      fun _ _ -> ()
  | Some r ->
      let cell_of = Hashtbl.create 8 in
      Array.iter (fun m -> Hashtbl.replace cell_of (id m) m) cells;
      let cap =
        wire_recovery engine r ~owns:(Hashtbl.mem cell_of)
          ~capture:(fun proc -> capture ~proc (Hashtbl.find cell_of proc))
          ~restore:(fun ctx (c : Checkpoint.t) ->
            restore ctx (Hashtbl.find cell_of c.Checkpoint.proc) c)
      in
      Array.iter
        (fun m ->
          let i = id m in
          net.set_handler i (fun ctx ~src msg ->
              handler m ctx ~src msg;
              cap i ctx))
        cells;
      cap

(* --- Fault wiring --------------------------------------------------- *)

let announce ~outcome ?(stop = true) ctx o =
  if Option.is_none !outcome then begin
    outcome := Some o;
    if stop then Engine.stop ctx
  end

type wiring = {
  net : net option;
  watchdog : (unit -> Watchdog.t) option;
  recovery : recovery option;
}

let chaos_wiring engine ~fault ~outcome =
  match fault with
  | Some f when not (Fault.is_none f) ->
      (* Under a plan with [Fault.Restart] windows the transport must
         retain acked frames for replay and the watchdogs probe for
         monitor liveness; every other plan keeps its exact
         pre-recovery schedule. *)
      let restarts = Fault.has_restarts f in
      let on_unreachable ctx ~dst =
        announce ~outcome ctx (Detection.Undetectable_crashed [ dst ])
      in
      let transport =
        Transport.create ~recovery:restarts
          ~inject:(fun frame -> Messages.Frame frame)
          ~project:(function Messages.Frame f -> Some f | _ -> None)
          ~on_unreachable engine
      in
      {
        net =
          Some
            {
              send =
                (fun ctx ~bits ~dst msg ->
                  Transport.send transport ctx ~bits ~dst msg);
              set_handler = (fun id h -> Transport.wire transport id h);
            };
        watchdog = Some (fun () -> Watchdog.create ~reprobe:restarts ());
        recovery =
          (if restarts then Some { transport; restarts = Fault.restarts f }
           else None);
      }
  | _ -> { net = None; watchdog = None; recovery = None }

(* --- Watchdog leases ------------------------------------------------ *)

(* A resend puts the originally encoded bytes back on the wire, so it
   re-charges [bits] rather than re-running a (stateful) encoder; the
   payload is copied because the receiver mutates a token's arrays. *)
let resend net ~bits ~dst payload ctx =
  net.send ctx ~bits ~dst (Messages.deep_copy payload)

let watch net wd ctx ~seq ~dst ~bits payload =
  Watchdog.watch wd ctx ~token:(payload, bits) ~seq ~dst
    ~resend:(resend net ~bits ~dst payload)
    ()

let lease wd ~proc =
  match wd with
  | Some wd when Watchdog.seq wd > 0 && Watchdog.owner wd = proc -> (
      match Watchdog.token wd with
      | Some (payload, w_bits) ->
          Some
            {
              Checkpoint.w_seq = Watchdog.seq wd;
              w_dst = Watchdog.dst wd;
              w_probes = Watchdog.probes wd;
              w_bits;
              w_payload = payload;
            }
      | None -> None)
  | _ -> None

let restore_lease net wd ctx (w : Checkpoint.wd_state option) =
  match (wd, w) with
  | Some wd, Some w when w.Checkpoint.w_seq >= Watchdog.seq wd ->
      (* Latest watch wins: a live watch with a newer hop means another
         monitor took over after this checkpoint. *)
      let bits = w.Checkpoint.w_bits and dst = w.Checkpoint.w_dst in
      let payload = w.Checkpoint.w_payload in
      Watchdog.restore wd ctx ~token:(payload, bits) ~seq:w.Checkpoint.w_seq
        ~dst ~probes:w.Checkpoint.w_probes
        ~resend:(resend net ~bits ~dst payload)
        ()
  | _ -> ()

let finish ?fault engine ~outcome ~extras =
  (match Engine.recorder engine with
  | None -> ()
  | Some r ->
      Wcp_obs.Recorder.emit r ~time:(Engine.now engine) ~proc:(-1)
        (Wcp_obs.Event.Phase_marked { name = "detect" }));
  Engine.run engine;
  let result o =
    {
      Detection.outcome = o;
      stats = Engine.stats engine;
      sim_time = Engine.now engine;
      events = Engine.events_processed engine;
      extras;
    }
  in
  match !outcome with
  | Some o -> result o
  | None -> (
      (* The event queue drained with no announcement. Under a fault
         plan with permanent crashes this is the expected shape of a
         wedged protocol (e.g. a crashed application process starves
         its monitor forever): degrade gracefully instead of raising. *)
      match fault with
      | Some plan when Fault.permanently_crashed plan <> [] ->
          result (Detection.Undetectable_crashed (Fault.permanently_crashed plan))
      | _ -> failwith "detection run ended without an outcome")

let on_slice ?recorder ~procs build ~run =
  (* The "slice" phase mark precedes the inner run's [Run_meta] — the
     slice is computed before any engine exists. Consumers treat
     leading phase marks as pre-run profile data (see Event.mli). *)
  (match recorder with
  | None -> ()
  | Some r ->
      Wcp_obs.Recorder.emit r ~time:0.0 ~proc:(-1)
        (Wcp_obs.Event.Phase_marked { name = "slice" }));
  let sl = build () in
  let sliced = Wcp_slice.Slice.computation sl in
  let r : Detection.result = run sliced (Spec.make sliced procs) in
  {
    r with
    Detection.outcome =
      Detection.remap_outcome (Wcp_slice.Slice.remap_cut sl) r.Detection.outcome;
  }

let with_slice ?recorder ~keep_rest comp spec ~run =
  let procs = Spec.procs spec in
  on_slice ?recorder ~procs
    (fun () -> Wcp_slice.Slice.for_spec ~keep_rest comp ~procs)
    ~run
