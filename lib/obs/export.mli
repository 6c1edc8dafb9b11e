(** Deterministic JSON rendering of a {!Snapshot}.

    The output is a pure function of the snapshot's contents: metric names
    appear in ascending order and values print by {!Json}'s writer
    contract (integers exactly, floats round-tripping). Two registries
    that merged to equal snapshots therefore serialise byte-identically —
    the property the bench [-j 1] vs [-j N] comparison relies on.

    Schema: a single object mapping each metric path to
    {v
      {"kind":"counter","value":N}
      {"kind":"sum","value":X}
      {"kind":"gauge","value":X}
      {"kind":"histogram","count":N,"total":T,"min":M,"max":M,
       "buckets":[[bound_ns,count],...]}
    v}
    where histogram [buckets] lists only non-empty buckets as
    [[upper bound in ns, count]] pairs in ascending bound order; the
    catch-all bucket's bound prints as [null]. [min]/[max] are [null] when
    [count = 0]. *)

(** Self-description for exported artifacts — which run produced the
    bytes — as the JSON object {!Chrome}'s [otherData] and the CLI's JSONL
    header also carry. *)
type meta = Json.t

(** [meta ()] lists the given fields in this order and omits absent ones.
    [trace_dropped] counts the entries the trace ring overwrote: nonzero
    means the exported trace is a suffix of the run ({!Trace.dropped}). A
    seed that does not fit in an OCaml [int] prints as a decimal string
    ({!Json.of_int64}). *)
val meta :
  ?seed:int64 ->
  ?scenario:string ->
  ?trace_capacity:int ->
  ?trace_dropped:int ->
  ?registry_enabled:bool ->
  unit ->
  meta

(** The one rendering of a snapshot as a {!Json.t}: the flat metric object
    documented above. *)
val to_json : Snapshot.t -> Json.t

(** The bytes of {!to_json} (no trailing newline), written metric by
    metric so the whole tree of a large snapshot is never live at once.
    With [meta] the output is [{"meta":{...},"metrics":{<flat object>}}],
    so artifacts carry their seed, scenario and truncation state. *)
val to_json_string : ?meta:meta -> Snapshot.t -> string

(** [float_repr f] is [Json.to_string (Float f)]. Kept because
    [perfbench/bench.ml], whose source the benchmark pins, formats its
    numbers with it. *)
val float_repr : float -> string
