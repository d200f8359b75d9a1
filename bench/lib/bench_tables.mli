(** The bench tables, rendered from {!Bench_json} rows.

    Each renderer reads only the rows of its experiment: it averages
    over seeds and formats, and runs no detector. Every column it
    prints is therefore either a det metric that [perf-check] pins in
    [BENCH_1.json] or a wall-clock one. Renderers skip the table lines
    whose rows are missing, so a partial run (the smoke profile)
    renders too. *)

val row_backed : string list
(** The experiments with a renderer: E1–E8, E15–E19, E21, E22. *)

val render : string -> Bench_json.metrics array -> string
(** [render exp rows]: the header and table of experiment [exp], drawn
    from the rows of [rows] whose experiment is [exp].
    @raise Invalid_argument if [exp] has no renderer, or a row lacks a
    metric its table prints. *)

val header : string -> string -> string
(** [header title claim]: the ruled block every table opens with. *)

val mean_i : ('a -> int) -> 'a list -> int
(** Integer mean of [f] over a non-empty list (truncating, as the
    tables print it). *)

val mean_f : ('a -> float) -> 'a list -> float
