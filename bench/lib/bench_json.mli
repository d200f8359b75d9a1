(** The benchmark pipeline.

    Every experiment of EXPERIMENTS.md that has a baseline is a list of
    jobs here. A job names its experiment, its detector (as data,
    looked up in {!Wcp_core.Algo} and run through
    {!Wcp_core.Algo.run}, the path the CLI and the streaming service
    take) and its workload. Running a job yields one row: its outcome
    and two metric lists. [det] holds the metrics that are pure
    functions of the job — equal on any machine, at any domain count.
    [wall] holds the machine-dependent ones. Each producer emits only
    the names it measures.

    The rows serve three readers. [json] writes them as [BENCH_1.json]
    with {!Wcp_obs.Export.Json}. [perf-check] compares a fresh run with
    that baseline ({!compare_runs}). The [tables] renderers
    ({!Bench_tables}) print the E1–E8 and E15–E22 tables from them, so
    every printed column is a pinned number or a wall-clock one. *)

type job = {
  experiment : string;  (** "E1".."E9", "E15".."E22" *)
  algo : string;
      (** a {!Wcp_core.Algo.of_string} name — job keys spell
          multi-token "token-multi" — or "adversary" (E6) *)
  n : int;
  m : int;
  p_pred : float;
  seed : int;
  param : int;
      (** groups (E3), spec width (E5), 1-based index into
          [Workloads.all ~seed:2025L] or 0 for a random run (E7),
          drop %% (E9), domain count (E15, E18's parallel arm), delta
          flag 0/1 (E16), slice flag 0/1 (E17), restart flag 0/1 (E19),
          telemetry flag 0/1 (E20), btrace-streamed flag 0/1 (E21),
          [sessions*1000 + domains*10 + mode] with mode 0 binary /
          1 jsonl / 2 slow-client (E22), else 0 *)
}

type metrics = {
  job : job;
  outcome : string;
      (** "detected" or "none"; for E15, "ok" iff the parallel batch
          was identical to its sequential reference, else "mismatch".
          E17–E21 append the detected cut in dense coordinates (e.g.
          ["detected {0:6 1:3}"]), so the baseline pins sliced to
          dense (E17), every domain count to the centralized checker
          (E18), the crash-recovery arm to the fault-free reference
          (E19), the telemetry arm to the bare one (E20) and the
          btrace-streamed replay to the text/dense reference (E21).
          E22 carries the served cut, or a spelled-out "mismatch". *)
  det : (string * Wcp_obs.Export.Json.t) list;
      (** Deterministic metrics, in the producer's order. Which names
          a row carries depends on its experiment; EXPERIMENTS.md,
          "Machine-readable runs", lists them. *)
  wall : (string * Wcp_obs.Export.Json.t) list;
      (** Machine-dependent metrics: [wall_ns] on every row, and
          [alloc_bytes], [slice_ns], [decode_ns], [peak_words],
          [events_per_sec], [lat_p50_ns], [lat_p95_ns] where measured. *)
}

val det : metrics -> string -> Wcp_obs.Export.Json.t
(** The named det metric.
    @raise Invalid_argument when the row does not carry it. *)

val det_int : metrics -> string -> int
val det_float : metrics -> string -> float

val wall_int : metrics -> string -> int
(** The named wall metric. @raise Invalid_argument as {!det}. *)

val wall_float : metrics -> string -> float

type profile = Full | Smoke

val profile_name : profile -> string
val profile_of_name : string -> profile

val jobs : profile -> job list
(** Every Smoke job is also a Full job. *)

val run_job : job -> metrics
(** Run one job to completion in the calling domain. *)

val run : ?domains:int -> profile -> metrics array
(** All jobs of the profile, in declaration order, fanned out with
    {!Wcp_util.Parallel.map} ([domains = 1] runs sequentially). The
    det metrics do not depend on [domains]. *)

val e7_workload : job -> Wcp_trace.Workloads.t option
(** The scenario workload an E7 job detects on ([None] for the random
    rows). *)

val e15_sessions : int
(** Sessions per E15 throughput batch; sessions/sec for an E15 row is
    [e15_sessions /. (wall_ns / 1e9)]. *)

val schema : string
(** Document schema tag, ["wcp-bench/11"]. *)

val emit : profile:profile -> metrics array -> string
(** JSON document, one row per line. *)

val parse_doc : string -> profile * metrics array
(** @raise Wcp_obs.Export.Json.Error on malformed input or schema
    mismatch. *)

val deterministic_equal : metrics -> metrics -> bool
(** Same job, outcome and [det] list. *)

val job_key : job -> string
(** Human-readable identity used to match baseline and current runs. *)

val compare_runs :
  ?tolerance:float -> ?subset:bool -> baseline:metrics array ->
  current:metrics array -> unit -> string list
(** Failure lines, empty when [current] reproduces the outcome and every
    det metric of [baseline] and no experiment's total wall time
    regressed by more than [tolerance] (default 0.20). A drift line
    names the job key, then each det name that moved with its baseline
    and current values. With [~subset:true] the coverage direction
    flips: every [current] job must exist in [baseline] (jobs the
    current run skipped are fine), and wall totals count only the jobs
    the current run executed — the [make bench-smoke] mode, checking a
    smoke run against the committed full baseline. *)
