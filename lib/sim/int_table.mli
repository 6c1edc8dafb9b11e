(** Hash tables keyed by [int], with a monomorphic key compare.

    [hash] is [Hashtbl.hash], so a table filled by the same insertions has
    the same buckets, and iterates in the same order, as a generic
    [Hashtbl.t] would: swapping one for the other changes no output. *)

include Hashtbl.S with type key = int
