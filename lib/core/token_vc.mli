(** The single-token vector-clock WCP detection algorithm (paper §3,
    Figs 2–3).

    One token circulates among the [n] monitor processes of the spec.
    It carries the candidate cut [G] and a color vector: [color.(k) =
    Red] means state [(k, G.(k))] has been eliminated (it happened
    before some other candidate, Lemma 3.1), [Green] means no selected
    state is causally after it. The token is only ever sent to a red
    monitor; that monitor consumes fresh candidates from its
    application process until one advances past [G.(k)], turns itself
    green, then marks red every [j] whose candidate the new state
    causally dominates. All green ⇒ the cut is consistent and every
    local predicate holds: the WCP is detected, and by Theorem 3.2 the
    cut is the {e first} such cut.

    Costs (§3.4, checked by the test suite and bench E1): the token
    moves at most [nm] times, at most [2nm] messages total, [O(n²m)]
    total bits and work, but only [O(nm)] work and space on any one
    process.

    {2 Two ways to run it}

    {!detect} replays a recorded computation (the application side is
    driven by {!App_replay}). {!install} + {!start} wire only the
    monitor side into an engine, for {e live} monitoring: application
    processes instrumented with {!Instrument} feed the monitors
    directly, the paper's Fig. 1 deployment. *)

open Wcp_trace
open Wcp_sim

type monitors

type hop
(** The run's token-hop machinery: one hop counter (the [seq] every
    token message carries) and one wire meter, shared by every sender
    of a §3 token — the monitors and, in the multi-token variant, the
    leader. *)

val install :
  Messages.t Engine.t ->
  n_app:int ->
  wcp_procs:int array ->
  ?net:Run_common.net ->
  ?watchdog:(int -> Watchdog.t option) ->
  ?forward:
    (hop -> Messages.t Engine.ctx -> int -> int array -> Messages.color array ->
     unit) ->
  ?tag:(Checkpoint.vc_mon -> Checkpoint.algo) ->
  ?check:(g:int array -> color:Messages.color array -> unit) ->
  ?recovery:Run_common.recovery ->
  ?stop:bool ->
  ?start_at:int ->
  ?delta:bool ->
  outcome:Detection.outcome option ref ->
  hops:int ref ->
  snapshots:int ref ->
  unit ->
  monitors
(** Install the Fig. 3 monitor handlers for the WCP over [wcp_procs]
    (sorted, distinct application process ids in [0..n_app)). The
    engine must follow the {!Run_common} id layout. This is the one
    implementation of the §3 monitor; the multi-token variant
    ({!Token_multi}) installs it with its own forwarding rule.

    A monitor holding the token consumes candidates until its entry
    turns green, eliminates every entry its candidate causally
    dominates, calls [check] (when given) with the token contents —
    used to assert Lemma 3.1 against a ground-truth computation — and
    then applies [forward hop ctx k g color] ([k] its spec index).
    The default forwarding rule sends the token ({!Messages.Vc_token})
    to the first red monitor, or, when none is left, stores the
    detected cut in [outcome] and, unless [stop] is [false], halts the
    engine (live monitors pass [~stop:false] so the application can
    run to completion). The receive side accepts {!Messages.Vc_token}
    and {!Messages.Group_token} alike.

    [net] (default {!Run_common.raw_net}) carries all monitor traffic;
    pass {!Run_common.chaos_wiring}'s when running under a fault plan.
    [watchdog k] (default none) guards every hop monitor [k] forwards
    against loss (lease probe + regeneration; see {!Watchdog}) and
    receives its probe replies. [recovery], when given, wires
    checkpoint capture and deterministic restore for the plan's
    [Fault.Restart] windows (see {!Run_common.wire_monitors}); its
    transport must be the one behind [net]. [tag] (default
    [Checkpoint.Vc]) labels the captured monitor state.

    [delta] (default [true]) charges each token hop its delta-encoded
    wire size ({!Wire.token_bits}) instead of the dense formula, and
    has the monitors decode {!Messages.Snap_vc_delta} snapshots (they
    always accept both snapshot forms). Purely a wire-cost matter:
    detection behaviour is identical either way. *)

val hop : monitors -> hop
(** The installed monitors' hop machinery, for a leader that sends
    tokens of its own. *)

val send_token :
  hop ->
  Messages.t Engine.ctx ->
  ?wd:Watchdog.t ->
  dst:int ->
  (int -> Messages.t) ->
  int array ->
  unit
(** [send_token hop ctx ~dst msg_of_seq g]: take the next hop number
    [seq], trace the hop, send [msg_of_seq seq] (a token carrying cut
    [g]) to engine process [dst] at its metered wire size, and, when
    [wd] is given, arm it on a private copy of the token. *)

val send_return :
  hop -> Messages.t Engine.ctx -> dst:int -> (int -> Messages.t) -> int array ->
  unit
(** As {!send_token}, untraced and unwatched: the §3.5 return of a
    group token to its leader. *)

val first_red : ?among:(int -> bool) -> Messages.color array -> int option
(** The least red index satisfying [among] (default: any). *)

val start : Messages.t Engine.t -> monitors -> unit
(** Schedule the initial (all-red, [G = 0]) token at the starting
    monitor ([start_at], a spec index, default the first) at time 0.
    §3.2: the token may start anywhere because the fully red color
    vector forces it to visit every monitor at least once. Call before
    [Engine.run]. *)

val detect :
  ?network:Network.t ->
  ?fault:Fault.plan ->
  ?recorder:Wcp_obs.Recorder.t ->
  ?invariant_checks:bool ->
  ?start_at:int ->
  ?options:Detection.options ->
  seed:int64 ->
  Computation.t ->
  Spec.t ->
  Detection.result
(** Replay the computation and run the detection protocol on top.

    [recorder] (default none) records the full causal trace of the run
    — snapshot arrivals, candidate advances, Fig. 3 eliminations with
    the witnessing vector-clock comparison, token hops, watchdog
    probes/regenerations — without perturbing the simulation (see
    {!Wcp_sim.Engine.create}).
    [invariant_checks] re-validates Lemma 3.1(1–3) against the recorded
    computation at every token processing step — an executable proof
    check (it reads the trace, so costs are not charged for it).

    [fault] (default none) runs the whole stack under deterministic
    chaos: all traffic rides the reliable transport, every token hop is
    watched by a {!Watchdog}, and a permanently crashed/unreachable
    peer yields [Undetectable_crashed] instead of a hang. Passing
    [Fault.none] is identical to omitting [fault]. When the plan has
    [Fault.Restart] windows the run additionally checkpoints each
    restarting monitor after every handled message (an exact state
    transfer — see [Checkpoint]) and rebuilds it from that checkpoint
    at window end, replaying unconsumed transport frames.

    [options] (default {!Detection.default_options}) bundles the
    per-run knobs shared by every detector. [options.delta] runs the
    wire-efficiency layer: snapshots ship hybrid delta/dense
    ({!Wire.encoded_stream}), token hops and application clock tags
    are charged their encoded size; with [delta = false] every payload
    and charge uses the dense formulas — the E16 baseline. The flag
    changes no message {e counts} and no RNG draws, so outcome,
    detected cut, hops and snapshot counts are identical across both
    settings; only [bits] differs. [options.gated] toggles interval
    gating of the snapshot streams. To detect on the computation
    slice, go through [Algo.run ~slice:true]. *)
