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

(* Successive bounds differ by a factor of at least 2, so each octave
   (2^e, 2^(e+1)] holds at most one of them: a value in that octave lands in
   the first bucket whose bound exceeds 2^e, or the next one.
   [by_octave.(e)] is that first bucket, found once by binary search; [e]
   is the binary exponent of [v - 1], read off its float image, and lies in
   [0, 62]. Past 2^53 the conversion may round [e] up by one, but every
   octave from 2^43 on maps to the catch-all, whose [max_int] bound no int
   exceeds. *)
let by_octave =
  let rec first_at_least v lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if int_bounds.(mid) >= v then first_at_least v lo mid
      else first_at_least v (mid + 1) hi
    end
  in
  Array.init 64 (fun e ->
      if e >= 62 then count - 1 else first_at_least ((1 lsl e) + 1) 0 (count - 1))

let index (v : int) =
  if v <= 1 then 0
  else begin
    let e =
      Int64.to_int
        (Int64.shift_right_logical (Int64.bits_of_float (Float.of_int (v - 1))) 52)
      - 1023
    in
    let i = Array.unsafe_get by_octave e in
    if v <= Array.unsafe_get int_bounds i then i else i + 1
  end
