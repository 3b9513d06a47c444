package repro.core

import repro.graph.LocalGraph

/** TPA: Two Phase Approximation for RWR (Algorithms 2 and 3), driver-side.
  *
  * Preprocessing (stranger approximation, Algorithm 2): the stranger
  * tail of the *PageRank* CPI series, `p_stranger = Σ_{i≥T} x'^(i)`, is
  * seed-independent and computed once.
  *
  * Online (Algorithm 3): compute the family part exactly
  * (`r_family = Σ_{i<S} x^(i)`), estimate the neighbor part by scaling
  * the family part with the closed-form L1 ratio of Lemma 3, and add the
  * precomputed stranger vector.
  */
object Tpa {

  /** Precomputed TPA model: the approximate stranger vector plus the
    * (c, T) configuration it was built with. S is a query parameter.
    */
  final case class Model(stranger: Array[Double], c: Double, t: Int) {
    /** Bytes of preprocessed data (the paper's Fig 3 metric): one double
      * per node for the stranger vector. The graph itself (O(m)) is an
      * input, not preprocessed output, and is charged to every method
      * equally — we report it separately in the memory bench.
      */
    def memoryBytes: Long = stranger.length.toLong * 8
  }

  /** Closed-form scaling ratio ‖r_neighbor‖₁ / ‖r_family‖₁ (Lemma 3):
    * `((1-c)^S − (1-c)^T) / (1 − (1-c)^S)`.
    */
  def neighborFactor(c: Double, s: Int, t: Int): Double = {
    require(s >= 1 && t >= s, s"need 1 <= S <= T, got S=$s T=$t")
    (math.pow(1 - c, s) - math.pow(1 - c, t)) / (1.0 - math.pow(1 - c, s))
  }

  /** Theorem 2 accuracy bound: ‖r_CPI − r_TPA‖₁ ≤ 2(1-c)^S. */
  def accuracyBound(c: Double, s: Int): Double = 2.0 * math.pow(1 - c, s)

  /** Preprocessing phase (Algorithm 2): approximate stranger vector
    * `p_stranger = Σ_{i=T}^{∞} x'^(i)` of the PageRank CPI series.
    */
  def preprocess(g: LocalGraph, c: Double, eps: Double, t: Int): Model =
    Model(LocalCpi.run(g, LocalCpi.uniformSeed(g.n), c, eps, t, Int.MaxValue), c, t)

  /** Online phase (Algorithm 3) with the stranger vector from [[preprocess]].
    *
    * r_TPA = r_family · (1 + ‖r_nbr‖₁/‖r_fam‖₁) + p_stranger
    */
  def online(g: LocalGraph, model: Model, s: Int, seed: Int, eps: Double): Array[Double] = {
    require(model.stranger.length == g.n,
      s"model has ${model.stranger.length} stranger entries, graph has n=${g.n}")
    val fam = family(g, model.c, s, seed, eps)
    val scale = 1.0 + neighborFactor(model.c, s, model.t)
    val out = new Array[Double](g.n)
    var i = 0
    while (i < g.n) { out(i) = fam(i) * scale + model.stranger(i); i += 1 }
    out
  }

  /** TPA-NA (Section IV-C): family + scaled neighbor, stranger omitted. */
  def onlineNA(g: LocalGraph, c: Double, s: Int, t: Int, seed: Int, eps: Double): Array[Double] = {
    val fam = family(g, c, s, seed, eps)
    val scale = 1.0 + neighborFactor(c, s, t)
    fam.map(_ * scale)
  }

  /** Exact family part `r_family = Σ_{i=0}^{S-1} x^(i)` from seed node. */
  def family(g: LocalGraph, c: Double, s: Int, seed: Int, eps: Double): Array[Double] = {
    require(seed >= 0 && seed < g.n, s"seed $seed outside [0, ${g.n})")
    LocalCpi.run(g, LocalCpi.unitSeed(g.n, seed), c, eps, 0, s - 1)
  }
}
