(** Bounded ring of structured trace events.

    Replaces the string-blob trace: components emit {!Event.t} variants and
    consumers pattern-match or pretty-print them. Tracing is disabled by
    default; the supported emission idiom is

    {[
      if Trace.active t.trace then
        Trace.emit (Option.get t.trace) ~at_ns (Event.Packet_delivered { ... })
    ]}

    (for an [t option] field) or {!emit} on a known sink — so a disabled or
    absent sink costs one branch, with no payload allocation and no string
    formatting.

    {b The emission window.} A sink counts every emission made while it is
    enabled, but stores only the events its [keep] predicate accepts.
    {!iter}, {!fold}, {!entries} and {!length} see the stored events among
    the last [capacity] emissions, and {!dropped} counts the emissions that
    fell out of that window. Both are therefore independent of [keep]: a
    filtered sink yields exactly the kept-kind subsequence of what an
    unfiltered sink of the same capacity holds, and reports the same
    [dropped]. An event [keep] rejects is never retained, so its payload
    dies young. *)

type t

type entry = { at_ns : int64; event : Event.t }

(** [create ~capacity ~keep ()] keeps the events [keep] accepts (default:
    all) among the [capacity] most recent emissions (default 65536). A
    sink whose consumer reads only some event kinds — lineage
    reconstruction reads {!Lineage.keep}'s five — passes them as [keep]
    and gets the same answers without storing the rest. With [metrics],
    each emission beyond the window's capacity is additionally counted in
    a [trace.dropped] registry counter, so exports built from that
    registry are self-describing about truncation. *)
val create :
  ?capacity:int -> ?keep:(Event.t -> bool) -> ?metrics:Registry.t -> unit -> t

val enable : t -> unit
val disable : t -> unit
val enabled : t -> bool

(** [active trace] is true when a sink is attached and enabled — the guard
    call sites use before building an event payload. *)
val active : t option -> bool

(** When [t] is enabled, [emit t ~at_ns ev] counts the emission and, if
    [keep] accepts [ev], stores it; a disabled sink does nothing. *)
val emit : t -> at_ns:int64 -> Event.t -> unit

(** The stored entries within the emission window, oldest first. *)
val iter : t -> (entry -> unit) -> unit
val fold : ('acc -> entry -> 'acc) -> 'acc -> t -> 'acc

(** Entries in emission order (oldest first); a thin wrapper over {!fold}. *)
val entries : t -> entry list

(** [clear t] empties the ring and zeroes the drop accounting — both the
    ring's own counter and its ["trace.dropped"] registry mirror, so the
    two never disagree after a checkpoint restore. *)
val clear : t -> unit

(** Number of entries {!iter} visits; at most {!capacity}. *)
val length : t -> int

(** The ring's fixed capacity. *)
val capacity : t -> int

(** Emissions that fell out of the window since creation (or the last
    {!clear}): [max 0 (emissions - capacity)], whatever [keep] stored.
    A consumer seeing [dropped t > 0] must treat the trace as a suffix of
    the run, not the whole run — lineage reconstruction, for example, will
    report chains whose proposals predate the ring's oldest entry as
    orphans. *)
val dropped : t -> int

(** [span t ~now ~name f] emits [Span_begin] before and [Span_end] (with the
    elapsed simulated time) after running [f]; the span is recorded even when
    [f] raises. [now] supplies the current simulated time in ns. *)
val span : t -> now:(unit -> int64) -> name:string -> (unit -> 'a) -> 'a

val pp_entry : Format.formatter -> entry -> unit
