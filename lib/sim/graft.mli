(** Grafting live extension constructors onto a restored heap graph.

    [Marshal] (even with [Marshal.Closures]) copies the slot block of every
    extension constructor — the [Object_tag] cell carrying the constructor's
    name and id — into the output. After [Marshal.from_string], values built
    from extensible-variant constructors (every [Sw_net.Packet.payload],
    for instance) therefore carry a {e copy} of their constructor slot, and
    pattern matching — which compares slots by physical identity — silently
    stops matching them: a restored in-flight [Egress_tunnel] packet falls
    into every handler's [_ -> drop] branch. This module is the antidote:

    - every module that declares [type Packet.payload += ...] registers its
      constructors here at initialisation time ({!register}), keyed by the
      compiler's fully-qualified constructor name;
    - {!repair} walks a freshly unmarshaled graph and re-points each copied
      slot at the registered live one, after which matching behaves exactly
      as if the value had never left the heap.

    A restored graph containing a slot whose name was never registered
    cannot be fixed — matching it would silently fail — so {!repair}
    reports such names and the caller must treat the restore as failed
    (see [Sw_ckpt.Image]).

    The walk is a whole-graph traversal (cycles and sharing handled via a
    physical-identity visited set); closures are scanned from their
    environment start so code pointers are never interpreted as values.
    Cost is linear in the size of the restored graph — the same graph that
    was just unmarshaled — and the walk allocates nothing per block:
    measured at about 0.25 µs per visited block on a 2-vCPU VM (a 240-host
    cloud, 1.6–2.0 MB images of 86k–104k blocks, in 0.02–0.03 s;
    [Marshal.from_string] of the same image takes 0.008–0.011 s). *)

(** [register ec] records a live extension constructor under its
    fully-qualified name (e.g. ["Sw_net__Packet.Egress_tunnel"]).
    Idempotent for the same slot; raises [Invalid_argument] if a
    {e different} slot is already registered under the name (cannot happen
    for compiler-generated names, which include the module path). *)
val register : Obj.Extension_constructor.t -> unit

(** Number of live constructors registered so far. *)
val registered : unit -> int

(** Result of a {!repair} walk. [patched] counts slot pointers re-pointed
    at live constructors; [visited] counts distinct heap blocks walked. *)
type stats = { patched : int; visited : int }

(** [repair root] walks the graph reachable from [root] (normally the
    value just returned by [Marshal.from_string]) and replaces every
    extension-constructor slot with its registered live counterpart.
    [Error names] lists (sorted, deduplicated) fully-qualified slot names
    present in the graph but absent from the registry — the graph was
    produced by a binary linking payload modules this one does not, and
    must not be trusted. The graph is still left fully walked (all
    {e known} slots repaired) when [Error] is returned. *)
val repair : Obj.t -> (stats, string list) result
