module Dist = Sw_stats.Dist
module Chi_square = Sw_stats.Chi_square
module Order_stats = Sw_stats.Order_stats

type row = {
  confidence : float;
  observations : float;
  b : float;
  delay_stopwatch : float;
  delay_stopwatch_victim : float;
  delay_noise : float;
  delay_noise_victim : float;
}

(* P(|X1 - X'1| <= d) in closed form for independent exponentials:
   P(X - X' > d) = l'/(l+l') e^(-l d) and symmetrically. *)
let abs_diff_cdf ~lambda ~lambda' d =
  if d < 0. then 0.
  else
    1.
    -. (lambda' /. (lambda +. lambda') *. Float.exp (-.lambda *. d))
    -. (lambda /. (lambda +. lambda') *. Float.exp (-.lambda' *. d))

let delta_n_for ~lambda ~lambda' ~coverage =
  if coverage <= 0. || coverage >= 1. then
    invalid_arg "Noise_defense.delta_n_for: coverage must be in (0, 1)";
  let rec widen hi =
    if abs_diff_cdf ~lambda ~lambda' hi < coverage then widen (hi *. 2.) else hi
  in
  let hi = widen 1. in
  let rec bisect lo hi iter =
    if iter = 0 then (lo +. hi) /. 2.
    else begin
      let mid = (lo +. hi) /. 2. in
      if abs_diff_cdf ~lambda ~lambda' mid < coverage then bisect mid hi (iter - 1)
      else bisect lo mid (iter - 1)
    end
  in
  bisect 0. hi 80

(* Exponential + U(0, b) has the closed-form CDF
   F(z) = min(z,b)/b - e^(-l z) (e^(l min(z,b)) - 1) / (l b). *)
let exp_plus_uniform ~lambda ~b =
  if b <= 0. then Dist.exponential ~rate:lambda
  else begin
    let cdf z =
      if z <= 0. then 0.
      else begin
        let m = Float.min z b in
        (m /. b)
        -. (Float.exp (-.lambda *. z) *. (Float.exp (lambda *. m) -. 1.) /. (lambda *. b))
      end
    in
    {
      Dist.cdf;
      sample =
        (fun rng ->
          Sw_sim.Prng.exponential rng ~rate:lambda +. Sw_sim.Prng.uniform rng ~lo:0. ~hi:b);
      lo = 0.;
      hi = (Float.log 1e6 /. lambda) +. b;
    }
  end

let median_null ~lambda =
  let e = Dist.exponential ~rate:lambda in
  Order_stats.median_dist [| e; e; e |]

let median_victim ~lambda ~lambda' =
  let e = Dist.exponential ~rate:lambda in
  let e' = Dist.exponential ~rate:lambda' in
  Order_stats.median_dist [| e'; e; e |]

let compare ~lambda ~lambda' ?(bins = 10) ?confidences () =
  if lambda <= 0. || lambda' <= 0. then
    invalid_arg "Noise_defense.compare: rates must be positive";
  let confidences =
    match confidences with Some c -> c | None -> [ 0.70; 0.80; 0.90; 0.99 ]
  in
  let delta_n = delta_n_for ~lambda ~lambda' ~coverage:0.9999 in
  let null_sw = median_null ~lambda in
  let alt_sw = median_victim ~lambda ~lambda' in
  let delay_stopwatch = Dist.mean null_sw +. delta_n in
  let delay_stopwatch_victim = Dist.mean alt_sw +. delta_n in
  List.map
    (fun confidence ->
      let observations =
        Chi_square.analytic ~null:null_sw ~alt:alt_sw ~bins ~confidence ()
      in
      (* The attacker's confidence after n observations under noise bound b:
         find min b such that the noise defence needs >= n observations. *)
      let needs b =
        Chi_square.analytic
          ~null:(exp_plus_uniform ~lambda ~b)
          ~alt:(exp_plus_uniform ~lambda:lambda' ~b)
          ~bins ~confidence ()
      in
      let rec widen b = if needs b < observations then widen (b *. 2.) else b in
      let hi = widen 1. in
      let rec bisect lo hi iter =
        if iter = 0 then (lo +. hi) /. 2.
        else begin
          let mid = (lo +. hi) /. 2. in
          if needs mid < observations then bisect mid hi (iter - 1)
          else bisect lo mid (iter - 1)
        end
      in
      let b = if needs 0.0 >= observations then 0. else bisect 0. hi 40 in
      {
        confidence;
        observations;
        b;
        delay_stopwatch;
        delay_stopwatch_victim;
        delay_noise = (1. /. lambda) +. (b /. 2.);
        delay_noise_victim = (1. /. lambda') +. (b /. 2.);
      })
    confidences
