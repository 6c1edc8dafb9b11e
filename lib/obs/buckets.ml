(* 1-2-5 per decade, 1 ns .. 10^12 ns, then a catch-all. The ladder is a
   compile-time constant so histograms from different simulations (and
   different worker domains) always merge bucket-for-bucket. *)

let bounds =
  let decades = 13 (* 10^0 .. 10^12 *) in
  let b = Array.make ((3 * decades) + 1) 0L in
  let v = ref 1L in
  for d = 0 to decades - 1 do
    b.((3 * d) + 0) <- !v;
    b.((3 * d) + 1) <- Int64.mul 2L !v;
    b.((3 * d) + 2) <- Int64.mul 5L !v;
    v := Int64.mul 10L !v
  done;
  b.(3 * decades) <- Int64.max_int;
  b

let count = Array.length bounds

(* The same ladder as immediates, searched by [index]: the catch-all's
   bound becomes [max_int], which no int exceeds. *)
let int_bounds =
  Array.mapi
    (fun i b -> if i = count - 1 then max_int else Int64.to_int b)
    bounds

let bound i =
  if i < 0 || i >= count then invalid_arg "Buckets.bound: index out of range";
  bounds.(i)

let index (v : int) =
  (* Binary search for the first bound >= v. *)
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if int_bounds.(mid) >= v then go lo mid else go (mid + 1) hi
    end
  in
  if v <= 1 then 0 else go 0 (count - 1)
