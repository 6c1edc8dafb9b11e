module Time = Sw_sim.Time

let fp_bits = 20
let fp_scale = Float.of_int (1 lsl fp_bits)

type t = {
  mutable base_virt : Time.t;  (** virt at [base_instr]. *)
  mutable base_instr : int;
  mutable slope_fp : int;  (** ns per branch, scaled by 2^20. *)
}

let slope_to_fp slope_ns_per_branch =
  if slope_ns_per_branch < 0. then
    invalid_arg "Virtual_time: slope must be non-negative";
  Float.to_int (Float.round (slope_ns_per_branch *. fp_scale))

let create ~start ~slope_ns_per_branch () =
  { base_virt = start; base_instr = 0; slope_fp = slope_to_fp slope_ns_per_branch }

let fp_mask = (1 lsl fp_bits) - 1

let virt_at t instr =
  if instr < t.base_instr then
    invalid_arg "Virtual_time.virt_at: instr precedes current segment";
  let delta = instr - t.base_instr in
  (* [(delta * slope_fp) lsr fp_bits], split at the binary point so the
     product never needs more than 63 bits: the high part of [delta] is
     shifted before it is multiplied, and only the low part, below 2^20,
     multiplies in full. Exact, since the high part's product is a
     multiple of 2^20. *)
  Time.add t.base_virt
    (((delta lsr fp_bits) * t.slope_fp)
    + (((delta land fp_mask) * t.slope_fp) lsr fp_bits))

let slope_ns_per_branch t = float_of_int t.slope_fp /. fp_scale

let set_slope t ~at_instr ~slope_ns_per_branch =
  let base_virt = virt_at t at_instr in
  t.base_virt <- base_virt;
  t.base_instr <- at_instr;
  t.slope_fp <- slope_to_fp slope_ns_per_branch

let instr_for_virt t v =
  if Time.(v <= t.base_virt) then t.base_instr
  else if t.slope_fp = 0 then max_int
  else begin
    let delta_virt = Time.sub v t.base_virt in
    (* Smallest d with (d * slope_fp) >> fp_bits >= delta_virt: the ceiling
       of (delta_virt << fp_bits) / slope_fp. Dividing delta_virt first
       keeps the shifted numerator below slope_fp << fp_bits. *)
    let s = t.slope_fp in
    let q = delta_virt / s and r = delta_virt mod s in
    t.base_instr + (q lsl fp_bits) + (((r lsl fp_bits) + s - 1) / s)
  end

let clamped_slope ~l ~u x =
  if l > u then invalid_arg "Virtual_time.clamped_slope: l > u";
  Float.max l (Float.min u x)
