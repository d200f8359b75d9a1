(** Shared wiring for the online detection runs.

    Engine process layout for a computation with [N] application
    processes:
    - ids [0 .. N-1]: application processes (trace replay);
    - ids [N .. 2N-1]: monitor of application process [p] is [N + p];
    - id [2N]: the centralized checker (for the baseline) or the
      multi-token leader (§3.5); idle otherwise.

    The default network gives every link an independent uniform latency
    and makes exactly the application→monitor and application→checker
    links FIFO, as required by §3.1; monitor-to-monitor traffic may be
    reordered freely. *)

open Wcp_trace
open Wcp_sim

val monitor_of : n:int -> int -> int
(** [monitor_of ~n p = n + p]. *)

val extra_id : n:int -> int
(** [2n]: checker / leader id. *)

val default_network : n:int -> Network.t

val make_engine :
  ?network:Network.t -> ?fault:Fault.plan ->
  ?recorder:Wcp_obs.Recorder.t -> seed:int64 -> Computation.t ->
  Messages.t Engine.t
(** Engine with [2N + 1] processes and the default network. [fault]
    (default none) switches on deterministic fault injection; see
    {!Wcp_sim.Fault}. [recorder] (default none) attaches the causal
    trace recorder; see {!Wcp_sim.Engine.create}. *)

val make_engine_n :
  ?network:Network.t -> ?fault:Fault.plan ->
  ?recorder:Wcp_obs.Recorder.t -> seed:int64 -> n:int -> unit ->
  Messages.t Engine.t
(** Same, for live systems that have no recorded computation. *)

val emit_run_meta :
  Messages.t Engine.t -> algo:string -> n:int -> width:int -> unit
(** Emit the [Run_meta] prologue event — followed by the ["build"]
    phase mark opening the wiring/setup phase of the telemetry
    profile — if the engine has a recorder (no-op otherwise). Every
    detector calls this once before wiring. *)

type net = {
  send : Messages.t Engine.ctx -> bits:int -> dst:int -> Messages.t -> unit;
  set_handler :
    int -> (Messages.t Engine.ctx -> src:int -> Messages.t -> unit) -> unit;
}
(** A pluggable delivery substrate: protocol code sends and installs
    handlers through one of these, so the same algorithm runs either
    directly on the engine or through the reliable transport. *)

val raw_net : Messages.t Engine.t -> net
(** Plain {!Engine.send} / {!Engine.set_handler}; byte-for-byte the
    pre-robustness behaviour, used whenever no fault plan is active. *)

(** {2 Crash-recovery wiring} *)

type recovery = {
  transport : Messages.t Wcp_sim.Transport.t;
      (** the run's reliable transport, created with [~recovery:true] *)
  restarts : Fault.window list;  (** the plan's [Restart] windows *)
}
(** A run's crash-recovery bundle. {!wire_monitors} checkpoints each
    restarting monitor after every handled message, so a restore is an
    exact state transfer (see {!Checkpoint}). *)

val wire_monitors :
  Messages.t Engine.t ->
  net ->
  ?recovery:recovery ->
  'm array ->
  id:('m -> int) ->
  handler:('m -> Messages.t Engine.ctx -> src:int -> Messages.t -> unit) ->
  capture:(proc:int -> 'm -> Checkpoint.algo * Checkpoint.wd_state option) ->
  restore:(Messages.t Engine.ctx -> 'm -> Checkpoint.t -> unit) ->
  (int -> Messages.t Engine.ctx -> unit)
(** Install [handler] on [net] for every monitor cell (engine id
    [id m]). Under [recovery], also wire checkpoint capture and
    deterministic restore for every [Restart] window aimed at one of
    these ids: seed an initial checkpoint per restarting monitor,
    encode a fresh checkpoint after {e every} handled message, and at
    each window's [until_t] decode the stored checkpoint, hand it to
    [restore] for the algorithm and watchdog state, rebuild the
    transport flows and run the {!Wcp_sim.Transport.reconnect}
    handshake. Checkpoints cross the capture/restore boundary only as
    encoded strings, so the codec itself is on the recovery path.

    Returns the capture hook, for state changes that happen outside a
    handler (the injected initial token); it no-ops without
    [recovery] and for monitors that never restart. *)

(** {2 Fault wiring} *)

type wiring = {
  net : net option;  (** [None]: the raw engine ({!raw_net}) *)
  watchdog : (unit -> Watchdog.t) option;
      (** makes one token-loss watchdog; a detector calls it once per
          watchdog it needs (one shared, or one per monitor) *)
  recovery : recovery option;
}

val chaos_wiring :
  Messages.t Engine.t ->
  fault:Fault.plan option ->
  outcome:Detection.outcome option ref ->
  wiring
(** The fault-mode wiring shared by the token detectors. No plan (or
    {!Fault.none}) → everything [None], the exact fault-free
    schedule. Otherwise all protocol traffic rides one
    {!Wcp_sim.Transport} (frames embedded as {!Messages.Frame}:
    exactly-once FIFO per link over the faulty network) whose
    unreachable-peer callback records [Undetectable_crashed] in
    [outcome] (first crash wins) and halts the engine, plus a
    watchdog maker. A plan with [Fault.Restart] windows additionally
    gets a recovery-mode transport (acked frames retained for
    replay), monitor-liveness ([~reprobe:true]) watchdogs and the
    {!recovery} bundle for {!wire_monitors}. *)

(** {2 Watchdog leases} *)

val watch :
  net ->
  Watchdog.t ->
  Messages.t Engine.ctx ->
  seq:int ->
  dst:int ->
  bits:int ->
  Messages.t ->
  unit
(** Guard token hop [seq] to [dst]. The payload must be the caller's
    private copy; every regeneration re-sends a fresh
    {!Messages.deep_copy} of it charged the originally metered [bits]
    (same bytes on the wire). *)

val lease : Watchdog.t option -> proc:int -> Checkpoint.wd_state option
(** The armed lease of a watchdog, for monitor [proc]'s checkpoint:
    [Some] only while it watches a hop that [proc] forwarded. *)

val restore_lease :
  net ->
  Watchdog.t option ->
  Messages.t Engine.ctx ->
  Checkpoint.wd_state option ->
  unit
(** Re-arm a checkpointed lease (resend rebuilt as in {!watch}),
    unless the watchdog already watches a newer hop — another monitor
    forwarded the token after the checkpoint. *)

val announce :
  outcome:Detection.outcome option ref ->
  ?stop:bool ->
  Messages.t Engine.ctx ->
  Detection.outcome ->
  unit
(** Record the run's result, first announcement wins, and halt the
    engine unless [stop] is [false] (live monitors let the application
    run to completion). *)

val finish :
  ?fault:Fault.plan ->
  Messages.t Engine.t ->
  outcome:Detection.outcome option ref ->
  extras:Detection.extras ->
  Detection.result
(** Emit the ["detect"] phase mark (when a recorder is attached), then
    run the engine and assemble the result. If the event queue drains
    without any announcement and [fault] contains permanent crash
    windows, the result is [Undetectable_crashed] over those processes
    (graceful degradation).
    @raise Failure if the queue drains without an announcement and no
    permanent crash explains it (a protocol bug, surfaced loudly for
    the test suite). *)

val on_slice :
  ?recorder:Wcp_obs.Recorder.t ->
  procs:int array ->
  (unit -> Wcp_slice.Slice.t) ->
  run:(Computation.t -> Spec.t -> Detection.result) ->
  Detection.result
(** [on_slice ~procs build ~run]: emit the ["slice"] phase mark into
    [recorder] (it legally precedes the inner run's [Run_meta] —
    slicing happens before any engine exists), call [build] for the
    slice, run the detector on it with the spec [procs], and remap the
    detected cut back to dense coordinates. This is the one
    slice-then-detect path: [Algo.run ~slice] ({!with_slice}),
    [detect --stream] (a {!Wcp_slice.Slice.for_spec_source}
    thunk over an mmap'd btrace, so the dense run is never
    materialised) and the streaming service (the finished
    {!Wcp_slice.Slice.Incremental} builder) all go through it, so their
    cuts agree with each other cut for cut. *)

val with_slice :
  ?recorder:Wcp_obs.Recorder.t ->
  keep_rest:bool ->
  Computation.t ->
  Spec.t ->
  run:(Computation.t -> Spec.t -> Detection.result) ->
  Detection.result
(** {!on_slice} over {!Wcp_slice.Slice.for_spec} of a dense
    computation: [run] is a dense detector, called once on the slice.
    [Algo.run ~slice] is this wrapper with [keep_rest] set by
    [Algo.full_width]; [keep_rest] must be [true] for a detector whose
    cuts span all [N] processes (direct dependence, GCP). *)
