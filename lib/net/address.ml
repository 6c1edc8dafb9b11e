type t =
  | Vm of int
  | Vmm of int
  | Host of int
  | Ingress
  | Egress
  | Broadcast_addr

let equal a b =
  match (a, b) with
  | Vm x, Vm y | Vmm x, Vmm y | Host x, Host y -> Int.equal x y
  | Ingress, Ingress | Egress, Egress | Broadcast_addr, Broadcast_addr -> true
  | (Vm _ | Vmm _ | Host _ | Ingress | Egress | Broadcast_addr), _ -> false

let compare = Stdlib.compare
let hash = Hashtbl.hash

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let pp fmt = function
  | Vm i -> Format.fprintf fmt "vm%d" i
  | Vmm i -> Format.fprintf fmt "vmm%d" i
  | Host i -> Format.fprintf fmt "host%d" i
  | Ingress -> Format.pp_print_string fmt "ingress"
  | Egress -> Format.pp_print_string fmt "egress"
  | Broadcast_addr -> Format.pp_print_string fmt "broadcast"

let to_string t = Format.asprintf "%a" pp t
