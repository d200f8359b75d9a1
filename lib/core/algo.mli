(** The detector registry: the six online WCP detectors behind one
    name table and one call shape.

    The first consistent cut satisfying a WCP is unique, so the
    detectors are interchangeable and choosing one is a table lookup.
    The CLI, the streaming service and the bench all select detectors
    here; adding a detector means adding a constructor and its row in
    this module, nowhere else. The slice policy lives here too: a
    detector's own [detect] always runs on the computation it is
    given. The per-detector [detect] entry points
    stay public (the tests call them directly as the reference this
    table is checked against). *)

open Wcp_trace

type t =
  | Token_vc  (** §3 single token, vector clocks ({!Token_vc}) *)
  | Multi_token  (** §3.5 group tokens under a leader ({!Token_multi}) *)
  | Token_dd  (** §4 direct dependence ({!Token_dd}) *)
  | Token_dd_par  (** §4.5 direct dependence with prefetching polls *)
  | Checker  (** Garg–Waldecker centralized checker ({!Checker_centralized}) *)
  | Parallel  (** domain-parallel checker ({!Checker_parallel}) *)

val all : t list
(** Every detector, in CLI order. *)

val name : t -> string
(** The canonical CLI name: ["token-vc"], ["multi-token"],
    ["token-dd"], ["token-dd-par"], ["checker"], ["parallel"]. *)

val of_string : string -> t option
(** Inverse of {!name}; also accepts ["token-multi"], the spelling of
    multi-token in bench job keys (BENCH_1.json). *)

val names_of : t list -> string
(** The {!name}s as an English list (["token-vc, token-dd or
    checker"]), for messages and help text. *)

val names : string
(** [names_of all]. *)

val full_width : t -> bool
(** Whether the detected cut spans all [N] processes rather than the
    spec processes (direct dependence). Such a detector needs a slice
    that keeps every state of the non-spec processes
    ([Slice.for_spec ~keep_rest:true]), and its cut must go through
    {!Detection.project_outcome} before it is compared with the
    oracle. *)

val spec_outcome : t -> Spec.t -> Detection.result -> Detection.outcome
(** The result's outcome over the spec processes only
    ({!Detection.project_outcome} when {!full_width}), comparable with
    the oracle's. *)

val fault_ok : t -> bool
(** Whether the detector runs under a fault plan: the token
    algorithms do, the checkers do not. *)

val run :
  t ->
  ?fault:Wcp_sim.Fault.plan ->
  ?recorder:Wcp_obs.Recorder.t ->
  ?groups:int ->
  ?domains:int ->
  ?slice:bool ->
  options:Detection.options ->
  seed:int64 ->
  Computation.t ->
  Spec.t ->
  Detection.result
(** Run the detector on the computation. [fault] goes to the token
    algorithms (see {!Token_vc.detect}); [groups] (default 2, clamped
    to the spec width) to multi-token; [domains] to the parallel
    checker. A parameter another detector does not
    take is ignored.

    [slice] (default [false]) runs the detector on the computation
    slice instead ({!Run_common.with_slice}, keeping every state of
    the non-spec processes when {!full_width}) and maps the cut back
    to dense coordinates: same outcome, fewer events examined (bench
    E17). This is the one place a dense run is sliced.
    @raise Invalid_argument if [fault] is given and not
    [fault_ok]. *)
