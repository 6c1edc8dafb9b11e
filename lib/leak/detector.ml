module Chi_square = Sw_stats.Chi_square
module Ks = Sw_stats.Ks
module Mutual_info = Sw_stats.Mutual_info
module Special = Sw_stats.Special
module Ttest = Sw_stats.Ttest

type report = {
  detector : string;
  statistic : float;
  p_value : float;
  effect : float;
  leak : bool;
  observations_at : (float * float) list;
  n_null : int;
  n_alt : int;
}

type t = {
  name : string;
  min_samples : int;
  verdict : null:float array -> alt:float array -> report;
  observations_needed :
    null:float array -> alt:float array -> confidence:float -> float;
}

let confidence_grid = [ 0.70; 0.75; 0.80; 0.85; 0.90; 0.95; 0.99 ]
let default_alpha = 0.01
let skipped r = Float.is_nan r.p_value

(* A verdict on a series too short for the detector: no statistic, no leak
   call — the audit layer counts these as dropped samples. *)
let undersized name ~null ~alt =
  {
    detector = name;
    statistic = nan;
    p_value = nan;
    effect = nan;
    leak = false;
    observations_at = List.map (fun c -> (c, infinity)) confidence_grid;
    n_null = Array.length null;
    n_alt = Array.length alt;
  }

let curve obs ~null ~alt =
  List.map (fun c -> (c, obs ~null ~alt ~confidence:c)) confidence_grid

(* Samples per side for an observed standardised effect d to clear the
   two-sided normal critical value at [confidence]: n = 2 (z / d)^2. *)
let effect_observations d ~confidence =
  let d = Float.abs d in
  if (not (Float.is_finite d)) || d <= 0. then
    if Float.is_finite d then infinity else 1.
  else begin
    let z = Special.probit ((1. +. confidence) /. 2.) in
    Float.max 1. (2. *. ((z /. d) ** 2.))
  end

let welch_obs ~null ~alt ~confidence =
  if Array.length null < 2 || Array.length alt < 2 then infinity
  else effect_observations (Ttest.cohens_d null alt) ~confidence

let welch ?(alpha = default_alpha) () =
  let min_samples = 8 in
  {
    name = "welch";
    min_samples;
    verdict =
      (fun ~null ~alt ->
        if Array.length null < min_samples || Array.length alt < min_samples
        then undersized "welch" ~null ~alt
        else begin
          let r = Ttest.welch null alt in
          {
            detector = "welch";
            statistic = r.Ttest.t_stat;
            p_value = r.Ttest.p_value;
            effect = Ttest.cohens_d null alt;
            leak = r.Ttest.p_value < alpha;
            observations_at = curve welch_obs ~null ~alt;
            n_null = Array.length null;
            n_alt = Array.length alt;
          }
        end);
    observations_needed = welch_obs;
  }

let cohens_d ?(threshold = 0.5) () =
  let min_samples = 8 in
  {
    name = "cohens_d";
    min_samples;
    verdict =
      (fun ~null ~alt ->
        if Array.length null < min_samples || Array.length alt < min_samples
        then undersized "cohens_d" ~null ~alt
        else begin
          let d = Ttest.cohens_d null alt in
          let r = Ttest.welch null alt in
          {
            detector = "cohens_d";
            statistic = d;
            p_value = r.Ttest.p_value;
            effect = d;
            leak = Float.abs d >= threshold;
            observations_at = curve welch_obs ~null ~alt;
            n_null = Array.length null;
            n_alt = Array.length alt;
          }
        end);
    observations_needed = welch_obs;
  }

let mi_obs ?(bins = Mutual_info.default_bins) () ~null ~alt ~confidence =
  if Array.length null = 0 || Array.length alt = 0 then infinity
  else begin
    let r = Mutual_info.against_labels ~bins ~null ~alt () in
    if r.Mutual_info.plugin_nats <= 0. then infinity
    else begin
      (* G = 2 n * MI (nats) ~ chi-square: observations until the G
         statistic at the observed per-sample information crosses the
         critical value. *)
      let crit =
        Chi_square.critical_value ~df:r.Mutual_info.df ~confidence
      in
      Float.max 1. (crit /. (2. *. r.Mutual_info.plugin_nats))
    end
  end

let mutual_info ?(alpha = default_alpha) ?(bins = Mutual_info.default_bins) () =
  let min_samples = 8 in
  let obs = mi_obs ~bins () in
  {
    name = "mutual_info";
    min_samples;
    verdict =
      (fun ~null ~alt ->
        if Array.length null < min_samples || Array.length alt < min_samples
        then undersized "mutual_info" ~null ~alt
        else begin
          let r = Mutual_info.against_labels ~bins ~null ~alt () in
          {
            detector = "mutual_info";
            statistic = r.Mutual_info.g_stat;
            p_value = r.Mutual_info.p_value;
            effect = r.Mutual_info.mi_bits;
            leak = r.Mutual_info.p_value < alpha;
            observations_at = curve obs ~null ~alt;
            n_null = Array.length null;
            n_alt = Array.length alt;
          }
        end);
    observations_needed = obs;
  }

let ks_obs ~null ~alt ~confidence =
  if Array.length null = 0 || Array.length alt = 0 then
    invalid_arg "Detector.ks: empty sample";
  let d = Ks.two_sample null alt in
  if d <= 0. then infinity
  else begin
    (* One-sample critical value c(alpha) = sqrt(-ln(alpha/2) / 2); reject
       when D_n > c / sqrt(n), so n = (c / D)^2. *)
    let alpha = 1. -. confidence in
    let c = Float.sqrt (-.Float.log (alpha /. 2.) /. 2.) in
    Float.max 1. ((c /. d) ** 2.)
  end

let ks ?(alpha = default_alpha) () =
  let min_samples = 8 in
  {
    name = "ks";
    min_samples;
    verdict =
      (fun ~null ~alt ->
        if Array.length null < min_samples || Array.length alt < min_samples
        then undersized "ks" ~null ~alt
        else begin
          let d = Ks.two_sample null alt in
          let p = Ks.p_value null alt in
          {
            detector = "ks";
            statistic = d;
            p_value = p;
            effect = d;
            leak = p < alpha;
            observations_at = curve ks_obs ~null ~alt;
            n_null = Array.length null;
            n_alt = Array.length alt;
          }
        end);
    observations_needed = ks_obs;
  }

(* The Fig. 4(b) distinguisher: edges from the null sample's quantiles,
   empirical frequencies on both sides, then the noncentrality-based
   count. *)
let chi_obs ?(bins = 10) () ~null ~alt ~confidence =
  if Array.length null = 0 || Array.length alt = 0 then
    invalid_arg "Detector.chi_square: empty sample";
  let edges = Chi_square.empirical_edges null ~bins in
  let to_probs counts total =
    Array.map (fun c -> c /. float_of_int total) counts
  in
  let null_probs =
    to_probs (Chi_square.bin_counts ~edges null) (Array.length null)
  in
  let alt_probs =
    to_probs (Chi_square.bin_counts ~edges alt) (Array.length alt)
  in
  Chi_square.observations_needed ~null_probs ~alt_probs ~confidence

let chi_square ?(alpha = default_alpha) ?(bins = 10) () =
  let min_samples = 8 in
  let obs = chi_obs ~bins () in
  {
    name = "chi_square";
    min_samples;
    verdict =
      (fun ~null ~alt ->
        if Array.length null < min_samples || Array.length alt < min_samples
        then undersized "chi_square" ~null ~alt
        else begin
          (* Two-sample homogeneity over pooled quantile bins. *)
          let pooled = Array.append null alt in
          let edges = Chi_square.empirical_edges pooled ~bins in
          let o_null = Chi_square.bin_counts ~edges null
          and o_alt = Chi_square.bin_counts ~edges alt in
          let n1 = float_of_int (Array.length null)
          and n2 = float_of_int (Array.length alt) in
          let n = n1 +. n2 in
          let cols = Array.length o_null in
          let col_tot = Array.init cols (fun j -> o_null.(j) +. o_alt.(j)) in
          let expect frac = Array.map (fun c -> c *. frac) col_tot in
          let stat =
            Chi_square.statistic ~expected:(expect (n1 /. n)) ~observed:o_null
            +. Chi_square.statistic ~expected:(expect (n2 /. n))
                 ~observed:o_alt
          in
          let occupied =
            Array.fold_left (fun a c -> if c > 0. then a + 1 else a) 0 col_tot
          in
          let df = max 1 (occupied - 1) in
          let p = 1. -. Chi_square.cdf ~df stat in
          {
            detector = "chi_square";
            statistic = stat;
            p_value = p;
            effect = stat /. n;
            leak = p < alpha;
            observations_at = curve obs ~null ~alt;
            n_null = Array.length null;
            n_alt = Array.length alt;
          }
        end);
    observations_needed = obs;
  }

let all =
  [ welch (); cohens_d (); mutual_info (); ks (); chi_square () ]
