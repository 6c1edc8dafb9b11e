(** Simulated time.

    A value of type {!t} is a count of nanoseconds. The same representation is
    used both for instants (nanoseconds since the start of the simulation) and
    for spans (durations); which one is meant is documented at each use site.
    Virtual time (the per-guest clock of Eqn. 1 in the paper) also uses this
    type: it is a nanosecond-denominated clock, just not synchronised with the
    simulation's real time.

    The representation is an immediate OCaml [int]: 63 bits on a 64-bit
    host, so instants up to 2^62 ns (about 146 years) are exact, and storing
    a time into a mutable field, a ref or a closure allocates nothing.
    Exports that need a fixed width (snapshots, traces, lineage) convert to
    [int64] at their boundary. *)

type t = int

val zero : t
val ns : int -> t
val us : int -> t
val ms : int -> t
val s : int -> t

(** [of_float_s x] is [x] seconds, rounded to the nearest nanosecond. *)
val of_float_s : float -> t

(** [of_float_ms x] is [x] milliseconds, rounded to the nearest nanosecond. *)
val of_float_ms : float -> t

val to_float_s : t -> float
val to_float_ms : t -> float
val to_float_us : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val mul_int : t -> int -> t
val div_int : t -> int -> t

(** [scale t x] is [t] multiplied by the float [x], rounded. *)
val scale : t -> float -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val is_negative : t -> bool

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

(** Pretty-prints with an adaptive unit, e.g. ["1.500ms"]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
