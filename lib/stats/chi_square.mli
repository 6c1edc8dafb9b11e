(** Chi-square machinery: CDF, critical values, and the
    "observations needed to detect the victim" computation behind
    Figs. 1(b), 1(c) and 4(b). *)

(** [cdf ~df x] is the chi-square CDF with [df] degrees of freedom. *)
val cdf : df:int -> float -> float

(** [critical_value ~df ~confidence] is the smallest [x] with
    [cdf ~df x >= confidence] (found by bisection). *)
val critical_value : df:int -> confidence:float -> float

(** [statistic ~expected ~observed] is the Pearson goodness-of-fit statistic
    sum (o - e)^2 / e over bins with [e > 0]. Arrays must have equal
    length. *)
val statistic : expected:float array -> observed:float array -> float

(** [divergence ~null_probs ~alt_probs] is the per-observation noncentrality
    sum (q - p)^2 / p, where [p]/[q] are the bin probabilities under the null
    and the alternative. Bins with [p = 0] are skipped. *)
val divergence : null_probs:float array -> alt_probs:float array -> float

(** [observations_needed ~null_probs ~alt_probs ~confidence] is the expected
    number of observations a distinguisher drawing from the alternative needs
    before the Pearson statistic against the null exceeds the critical value
    at [confidence]: n such that n * divergence + df >= critical. Returns at
    least [1.]; [infinity] when the distributions coincide on the bins. *)
val observations_needed :
  null_probs:float array -> alt_probs:float array -> confidence:float -> float

(** Equal-probability bin edges for [n] bins of a distribution, i.e. its
    quantiles at 1/n, 2/n, ... (n-1)/n — a standard binning choice that keeps
    expected counts uniform under the null. *)
val equiprobable_edges : Dist.t -> bins:int -> float array

(** [empirical_edges samples ~bins] is the sample analogue of
    {!equiprobable_edges}: interior edges at the linearly interpolated
    sample quantiles 1/bins, ..., (bins-1)/bins. Requires a non-empty
    sample and at least 2 bins. *)
val empirical_edges : float array -> bins:int -> float array

(** [bin_probs ~edges cdf] turns bin edges (interior edges, length [b-1])
    into [b] bin probabilities under [cdf], including the two unbounded end
    bins. *)
val bin_probs : edges:float array -> (float -> float) -> float array

(** [bin_counts ~edges samples] bins raw observations with the same edge
    convention as {!bin_probs}. *)
val bin_counts : edges:float array -> float array -> float array

(** [goodness_of_fit ~edges ~null_probs ~samples] runs the Pearson test of
    [samples] against the binned null and returns the p-value
    (small = reject the null). *)
val goodness_of_fit :
  edges:float array -> null_probs:float array -> samples:float array -> float

(** [analytic ~null ~alt ?bins ~confidence ()] is {!observations_needed}
    for two closed-form distributions: [null] is cut into [bins]
    (default 10) {!equiprobable_edges} and both sides are binned with
    {!bin_probs} — the y-axis of Figs. 1(b) and 1(c). *)
val analytic :
  null:Dist.t -> alt:Dist.t -> ?bins:int -> confidence:float -> unit -> float
