(** Network addresses of the simulated cloud's participants. *)

type t =
  | Vm of int  (** A guest VM, by logical VM id (shared by its replicas). *)
  | Vmm of int  (** The VMM / device models on a physical machine. *)
  | Host of int  (** An external host (client, observer). *)
  | Ingress  (** The ingress node replicating inbound guest traffic. *)
  | Egress  (** The egress node enforcing median output timing. *)
  | Broadcast_addr  (** Subnet broadcast (e.g. ARP background noise). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Hash tables keyed by address, with the monomorphic {!equal}. [hash] is
    {!hash}, so iteration order matches a generic [Hashtbl.t]'s. *)
module Table : Hashtbl.S with type key = t
