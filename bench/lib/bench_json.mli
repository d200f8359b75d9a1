(** Machine-readable benchmark harness.

    Runs the E1-E9 and E15-E22 experiment sweeps as independent jobs
    (fanned out over domains with {!Wcp_util.Parallel}), records one
    metrics record per job, and serialises the lot as a stable JSON
    document suitable for committing as a regression baseline (see
    [BENCH_1.json] and EXPERIMENTS.md, "Machine-readable benchmarks").

    All fields except [wall_ns] and [alloc_bytes] are deterministic
    functions of the job parameters: two runs of the same profile — on
    any machine, at any domain count — agree on them exactly, and
    {!compare_runs} enforces this against a committed baseline.

    Jobs name their detector as data; it is looked up in
    {!Wcp_core.Algo} and run through {!Wcp_core.Algo.run}, the same
    path the CLI and the streaming service take. Documents are written
    and read with {!Wcp_obs.Export.Json}, the codec of the event and
    serve streams. *)

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
      (** groups (E3), spec width (E5), drop %% (E9), domain count
          (E15, E18's parallel arm), delta flag 0/1 (E16), slice flag
          0/1 (E17), restart flag 0/1 (E19), btrace-streamed flag 0/1
          (E21), [sessions*1000 + domains*10 + mode] with mode 0
          binary / 1 jsonl / 2 slow-client (E22), else 0 *)
}

type metrics = {
  job : job;
  outcome : string;
      (** "detected" or "none"; for E15, "ok" iff the parallel batch
          was byte-identical to its sequential reference, else
          "mismatch". E17 and E18 append the detected cut in dense
          coordinates (e.g. ["detected {0:6 1:3}"]), so the baseline
          comparison pins the sliced arm to the dense arm's exact cut
          (E17), every domain count to the centralized checker's cut
          (E18), and the crash-recovery arm to the fault-free
          reference's cut (E19). E21 spells the cut too, pinning the
          btrace-streamed replay to the text/dense reference. *)
  states : int;
  hops : int;
  polls : int;
  snapshots : int;
  merges : int;
  work : int;
  max_work : int;
  messages : int;
  bits : int;
  events : int;
  sim_time : float;
  retransmits : int;  (** transport recovery (E9, E19; zero elsewhere) *)
  dups_suppressed : int;
  net_dropped : int;
  net_duplicated : int;
  replayed : int;
      (** Frames replayed from the transport's retained history on a
          post-restart reconnect (E19's restart arm; zero elsewhere).
          Deterministic, like [retransmits]. *)
  recovery_latency : float;
      (** Sim time from the restarted monitor's state restore to the
          run's verdict (E19's restart arm; zero when no restore
          fired). Deterministic: pure simulation clock. *)
  trace_events : int;
      (** Events emitted by a second, traced run of the same job. The
          timed run stays untraced (so [wall_ns] is unaffected), and
          recording never perturbs the engine, so the trace-derived
          fields below are deterministic. Zero for the adversary. *)
  eliminations : int;
  hop_p50 : float;  (** token-hop latency quantiles (sim time) *)
  hop_p95 : float;
  hop_max : float;
  elims_per_hop_p50 : float;  (** eliminations between token acceptances *)
  elims_per_hop_p95 : float;
  elims_per_hop_max : float;
  slice_states : int;
      (** Total states of the computation slice for the sliced arm of
          E17 ([job.param = 1]); zero everywhere else. Deterministic:
          the slice is a function of the computation and the spec. *)
  par_rounds : int;
      (** Parallel-checker barrier rounds (E18's "parallel" rows; zero
          for every other detector). Deterministic and domain-count
          independent, like [par_frontier] and [par_items]. *)
  par_frontier : int;
      (** Widest frontier: most slots advanced in a single round. *)
  par_items : int;
      (** Candidate-versus-threshold comparisons across all rounds. *)
  span_token_p50 : float;
      (** Median token-generation span duration (sim time) from the
          traced reference run's span tree; zero when the run has no
          spans of the kind. Deterministic, like every span field. *)
  span_token_p95 : float;  (** 95th-percentile token span. *)
  span_round_p50 : float;  (** Median elimination-round span. *)
  span_round_p95 : float;  (** 95th-percentile elimination round. *)
  span_recovery_p50 : float;
      (** Median crash-recovery window (restart to replay-complete). *)
  span_recovery_p95 : float;  (** 95th-percentile recovery window. *)
  span_retx_p50 : float;
      (** Median retransmit-burst span (bursts close after a 2.0
          sim-time gap with no retransmission). *)
  span_retx_p95 : float;  (** 95th-percentile retransmit burst. *)
  telemetry_lines : int;
      (** Lines a [wcp-metrics/1] stream of the traced run would carry
          (alloc-stripped encoder, so the count is deterministic). *)
  trace_bytes : int;
      (** On-disk bytes of the trace the job detected from (E21: text
          for [param = 0], btrace for [param = 1]; zero elsewhere).
          Deterministic — both formats are byte-stable. *)
  decode_ns : int;
      (** Wall time of the E21 load step: text decode to the dense
          computation, or btrace open + streamed slice construction
          (machine-dependent; zero outside E21). *)
  peak_words : int;
      (** Live-heap words the E21 load step left behind ([Gc.live_words]
          delta), or the sampled heap growth while serving E22's
          slow-client arm. The bounded-memory evidence in both cases.
          Excluded from determinism comparisons (GC-state dependent);
          zero elsewhere. *)
  slice_ns : int;
      (** Wall time of slice construction (machine-dependent; zero
          outside E17's sliced arm). *)
  events_per_sec : float;
      (** E22 aggregate ingest throughput: total events streamed across
          the row's sessions divided by the serve window's wall time.
          Machine-dependent; perf-check applies an absolute floor to
          the gate row. Zero outside E22. *)
  lat_p50_ns : int;
      (** E22 median per-session submit-to-result latency
          (machine-dependent; zero outside E22). *)
  lat_p95_ns : int;  (** 95th-percentile session latency (E22). *)
  wall_ns : int;  (** machine-dependent *)
  alloc_bytes : int;  (** machine-dependent (GC promotion noise) *)
}

type profile = Full | Smoke

val profile_name : profile -> string
val profile_of_name : string -> profile

val jobs : profile -> job list

val run_job : job -> metrics
(** Run one job to completion in the calling domain. *)

val run : ?domains:int -> profile -> metrics array
(** All jobs of the profile, in declaration order, fanned out with
    {!Wcp_util.Parallel.map} ([domains = 1] runs sequentially). The
    deterministic metric fields do not depend on [domains]. *)

val e15_sessions : int
(** Sessions per E15 throughput batch; sessions/sec for an E15 row is
    [e15_sessions /. (wall_ns / 1e9)]. The batch runs under
    {!Wcp_util.Parallel.map} with [job.param] domains, and its
    per-session summaries are compared against a sequential reference
    run (see [outcome]). *)

val schema : string
(** Document schema tag, ["wcp-bench/10"] (v2 added the fault-recovery
    counters; v3 the trace-derived histogram summaries; v4 E15/E16 and
    the gated + delta-encoded wire defaults; v5 E17 computation
    slicing, the [slice_states]/[slice_ns] fields, and packed dd
    snapshot + poll pricing under [delta], which moves dd bit counts;
    v6 E18 domain-parallel checker crossover and the
    [par_rounds]/[par_frontier]/[par_items] fields; v7 E19
    crash-recovery and the [replayed]/[recovery_latency] fields; v8
    E20 always-on telemetry overhead, the [span_*_p50]/[span_*_p95]
    duration percentiles and [telemetry_lines] — traced runs now carry
    phase marks, so [trace_events] grew by the mark count; v9 E21
    binary trace store (text/dense vs btrace/streamed replay) and the
    [trace_bytes]/[decode_ns]/[peak_words] fields; v10 E22 streaming
    detection service (loopback sessions vs the offline streamed
    reference) and the [events_per_sec]/[lat_p50_ns]/[lat_p95_ns]
    fields). *)

val emit : profile:profile -> metrics array -> string
(** JSON document, one result record per line. *)

val parse_doc : string -> profile * metrics array
(** @raise Wcp_obs.Export.Json.Error on malformed input or schema
    mismatch. *)

val strip_timing : metrics -> metrics
(** Zero the machine-dependent fields, for exact comparisons. *)

val deterministic_equal : metrics -> metrics -> bool

val job_key : job -> string
(** Human-readable identity used to match baseline and current runs. *)

val compare_runs :
  ?tolerance:float -> ?subset:bool -> baseline:metrics array ->
  current:metrics array -> unit -> string list
(** Failure lines, empty when [current] reproduces every deterministic
    field of [baseline] and no experiment's total wall time regressed
    by more than [tolerance] (default 0.20). With [~subset:true] the
    coverage direction flips: every [current] job must exist in
    [baseline] (jobs the current run skipped are fine), and wall totals
    count only the jobs the current run executed — the
    [make bench-smoke] mode, checking a smoke run against the committed
    full baseline. *)
