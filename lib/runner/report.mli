(** Machine-readable benchmark results ([BENCH_results.json]) and the
    runner's outcome objects, as {!Sw_obs.Json} values.

    [t] is {!Sw_obs.Json.t} itself, re-exported so callers can keep
    writing [Report.Obj] / [Report.Int]; serialisation is that codec's
    byte-stable writer, so parallel and sequential sweeps can be compared
    with [String.equal]. *)

type t = Sw_obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) serialisation. *)
val to_string : t -> string

(** [write path json] writes [to_string json] plus a trailing newline. *)
val write : string -> t -> unit

(** Summary statistics as an object:
    [{"count", "mean", "stddev", "min", "max", "total"}] (min/max [Null]
    when empty). *)
val of_summary : Sw_sim.Summary.t -> t

(** A structured failure as an object:
    [{"key", "status", "attempts", ..., "reason"}] — [status] is
    ["crashed"] (with the printed exception under ["exn"]) or
    ["timed_out"] (with the budget under ["timeout_s"]), [attempts] the
    number of attempts spent; ["reason"] keeps the legacy one-line
    rendering. *)
val of_failure : Runner.failure -> t

(** [of_outcome value outcome] renders a job's final status:
    [{"status": "ok", "value": ...}] on success (via [value]), else
    {!of_failure}'s object. *)
val of_outcome : ('a -> t) -> 'a Runner.outcome -> t

(** [Sw_obs.Export.to_json]. Kept because [perfbench/bench.ml], whose
    source the benchmark pins, calls it. *)
val of_metrics : Sw_obs.Snapshot.t -> t

(** [bench_file ?metrics ?perf ~workers ~wall_s ~timings ~experiments ()]
    assembles the [BENCH_results.json] document. Everything under
    ["experiments"] — and ["metrics"], when a merged snapshot is supplied —
    is deterministic (same bytes for any worker count); worker count,
    wall-clock readings and the engine micro-benchmark's throughput rows
    (["perf"], one object per workload) live under ["workers"] / ["timing"]
    / ["perf"] so consumers — and the determinism test — can split the
    two. *)
val bench_file :
  ?metrics:Sw_obs.Snapshot.t ->
  ?perf:(string * t) list ->
  workers:int ->
  wall_s:float ->
  timings:(string * float) list ->
  experiments:(string * t) list ->
  unit ->
  t
