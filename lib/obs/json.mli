(** The project's one JSON codec: a value type, a recursive-descent reader
    and a byte-stable writer, with no external dependency.

    Every JSON artifact the project emits goes through this module:
    {!Export}'s snapshots, [Sw_runner.Report]'s [BENCH_results.json], the
    CLI's reports and JSONL traces, and [.scn] scenarios re-printed by
    [Sw_workload.Dsl]. {!Export} and {!Chrome} stream through
    {!obj_to_buffer} and {!to_buffer}. The reader parses the full value
    grammar ([\u] escapes outside the BMP are out of scope) and offers just
    enough accessors to walk a parsed tree.

    Writer contract: the output is a pure function of the value, so equal
    values always serialise to equal bytes — the property every
    byte-compared artifact and digest rests on.
    - [Int] prints exactly ([string_of_int]).
    - [Float] prints as the shortest of [%.12g] / [%.17g] that parses back
      to the same float. Non-finite floats, which JSON cannot carry, print
      as the strings ["nan"], ["inf"] and ["-inf"].
    - Strings escape the double quote, the backslash, newline, carriage
      return and tab by letter, and other control bytes as [\u00XX];
      every other byte, UTF-8 included, passes through.
    - Objects keep their field order; output is one line. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** Exact; the reader's choice for integer literals. *)
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [parse s] parses exactly one JSON value spanning all of [s]
    (surrounding whitespace allowed). An integer literal that fits in an
    OCaml [int] reads as [Int]; every other number as [Float]. [Error msg]
    carries the 1-based line and column — and the byte offset — of the
    failure, e.g. ["expected ',' or '}' at line 3, column 7 (offset 41)"]. *)
val parse : string -> (t, string) result

(** [member name v] is field [name] when [v] is an object containing it. *)
val member : string -> t -> t option

val to_list : t -> t list option
val as_string : t -> string option

(** [Int] and [Float] alike, as a float. *)
val to_number : t -> float option

(** [of_int64 v] is [Int] when [v] fits in an OCaml [int], else the decimal
    [String] [Int64.of_string] reads back — so a full-width 64-bit value
    (a seed, a nanosecond total) never loses its identity. *)
val of_int64 : int64 -> t

(** [to_buffer buf v] appends [v]'s serialisation; {!to_string} is this
    into a fresh buffer. *)
val to_buffer : Buffer.t -> t -> unit

(** [obj_to_buffer buf value fields] appends the object [fields], each
    value written by [value] — the writer's own object case, for emitters
    that stream values they never hold as one tree. *)
val obj_to_buffer :
  Buffer.t -> (Buffer.t -> 'a -> unit) -> (string * 'a) list -> unit

val to_string : t -> string
