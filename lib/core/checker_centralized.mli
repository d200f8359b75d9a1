(** The centralized checker baseline (Garg–Waldecker [7]).

    Every spec process sends its Fig. 2 local snapshots over a FIFO
    channel to a single checker process, which runs the advance-the-cut
    algorithm online: it keeps one candidate per process and eliminates
    any candidate that happened before another (comparing the O(n)
    vector clocks), declaring detection when the [n] candidates are
    pairwise concurrent.

    This is the algorithm the paper improves on: total work is the same
    [O(n²m)], but {e all} of it — and [O(n²m)] buffer space — lands on
    the one checker process (engine id [2N]), which is what experiment
    E2 measures against the token algorithm's [O(nm)] per-process
    bounds. *)

open Wcp_trace
open Wcp_sim

val detect :
  ?network:Network.t -> ?recorder:Wcp_obs.Recorder.t ->
  ?options:Detection.options ->
  seed:int64 -> Computation.t -> Spec.t -> Detection.result
(** [recorder] (default none) records snapshot arrivals and every
    happened-before elimination with both candidates' vector clocks;
    see {!Wcp_sim.Engine.create}. [options] as in {!Token_vc.detect}:
    wire encoding ([delta]) and interval gating ([gated]); detection
    behaviour identical under every setting. *)
