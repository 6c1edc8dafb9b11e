(** Compile-and-run driver for [kind = "workload"] scenarios.

    Builds the cloud described by a {!Dsl.workload} — StopWatch replicas or
    an unmodified-Xen baseline, the {!Kv} front service, the {!Flowgen}
    open-loop client, optional co-resident attack probe, fault schedule,
    trace/profile instrumentation — advances the simulation for the
    scenario's duration plus a fixed drain window, and distils the
    [workload.*] metrics into a result record.

    Deterministic: every generator is seeded from [w.seed] alone, so equal
    workload values produce byte-identical results (the property the runner
    relies on to shard load-multiplier sweeps across [-j N] domains). *)

type result = {
  issued : int;  (** Requests offered by the open-loop client. *)
  completed : int;  (** Responses received before the drain window closed. *)
  hits : int;
  misses : int;
  p50_ms : float;  (** Response-time quantiles read off the bucket ladder. *)
  p99_ms : float;
  attacker_inter_delivery_ms : float array;
      (** Virtual inter-delivery times at the co-resident probe; empty
          without an [attack] clause. *)
  leak_series : (string * float array) list;
      (** Leak-observation series recorded under [leak_audit]: the probe's
          ["attacker/inter-delivery"] series plus one
          ["vm<i>/<mechanism>"] series per lineage observation — the input
          an [Sw_leak.Audit] pairs across two configurations. Empty unless
          the scenario set [leak_audit]. *)
  trace : Sw_obs.Trace.t option;
      (** The cloud-wide trace sink, when the scenario asked for one. A
          sink that [leak_audit] alone forced on stores only
          {!Sw_obs.Lineage.keep}'s events; with [trace] set it stores
          every event. *)
  metrics : Sw_obs.Snapshot.t;
  fired : int;
      (** Engine events fired across all shards — the numerator of the
          events/s throughput the shard-scale bench reports. *)
  cross_shard : int;  (** Messages exchanged at shard barriers; 0 unsharded. *)
}

(** [quantile_ms snapshot name q] reads the [q]-quantile (in ms) of a
    histogram out of a snapshot: the upper bound of the first bucket whose
    cumulative count reaches [q], clamped to the observed min/max. [0.]
    when the histogram is absent or empty. *)
val quantile_ms : Sw_obs.Snapshot.t -> string -> float -> float

(** The result row every report prints:
    [{"issued","completed","hits","misses","p50_ms","p99_ms"}], then
    [extra]'s fields in order. *)
val to_json : ?extra:(string * Sw_obs.Json.t) list -> result -> Sw_obs.Json.t

(** A built-but-not-yet-run scenario: the cloud with all guests, clients,
    probes, and fault schedules installed, the time the load (plus drain)
    ends, and a [finish] thunk that distils the result once the simulation
    has been advanced to [until]. The handle is exactly what a checkpoint
    captures: [Cloud.checkpoint cloud ~extra:handle] serializes the pair
    with their sharing intact ([finish]'s environment closes over the
    cloud), so a restored handle's [finish] reads the restored cloud. The
    soak driver ([Sw_ckpt.Soak]) runs handles in checkpointed slices;
    {!run} is the one-shot form. *)
type handle = {
  cloud : Stopwatch.Cloud.t;
  until : Sw_sim.Time.t;  (** Scenario duration plus the drain window. *)
  finish : unit -> result;  (** Call once the cloud has reached [until]. *)
  observe : unit -> (string * float array) list;
      (** Snapshot the leak-observation series accumulated so far; safe
          mid-run (the soak driver calls it at every checkpoint grid
          point). Empty unless the scenario set [leak_audit]. *)
}

(** The cell-level communication graph of the scenario's topology block:
    one node per service cell, one edge per east-west flow (weight = its
    arrival rate). The input {!Sw_placement.Affinity.partition} consumes,
    and the graph the bench prices contiguous-vs-affinity cuts against. A
    scenario without a topology block yields the trivial 1-cell graph. *)
val traffic_graph : Dsl.workload -> Sw_placement.Affinity.graph

(** [prepare ?shards ?partition w] builds the scenario without
    advancing it; see {!run} for the scenario semantics and {!handle} for
    what to do next. *)
val prepare :
  ?shards:int ->
  ?partition:[ `Contiguous | `Affinity | `Assign of int array ] ->
  Dsl.workload ->
  handle

(** Runs the scenario. Without a [topology] block this is the single-cell
    path above. With one, the cloud is [topology.hosts] machines carved
    into [hosts/replicas] service cells (each its own replica group, KV
    server, client host, and optional east-west flow toward the cell
    [east_west_stride] further on), simulated over [topology.shards]
    conservative shards — [?shards] overrides the block's count from the
    command line, [?partition] likewise overrides the block's cell
    placement ([`Assign a] additionally accepts an arbitrary explicit
    cell-to-shard map — the hook the partition-independence property test
    drives with random maps). The scenario is zero-draw (no jitter, no
    loss, no disk seek) and every generator is key-derived, so the result
    is byte-identical across shard counts and partitions outside the
    [sim.*] metric namespace. Raises [Invalid_argument] when
    {!Dsl.check_topology} rejects the (possibly overridden) block or an
    [`Assign] map is malformed. *)
val run :
  ?shards:int ->
  ?partition:[ `Contiguous | `Affinity | `Assign of int array ] ->
  Dsl.workload ->
  result
