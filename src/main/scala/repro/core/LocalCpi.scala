package repro.core

import repro.graph.LocalGraph

/** Cumulative Power Iteration (Algorithm 1, CPI-IMPL) on a driver-side
  * CSR graph.
  *
  * CPI interprets RWR as score propagation: `x^(0) = c·q`,
  * `x^(i) = (1-c) Ã^T x^(i-1)`, and accumulates
  * `r = Σ_{i=sIter}^{tIter} x^(i)` (bounds inclusive, as in the paper's
  * Algorithm 1). With `sIter = 0, tIter = ∞` this converges to the exact
  * RWR/PageRank vector (Theorem 1) — it is the repo's ground-truth oracle
  * standing in for the paper's use of BePI.
  */
object LocalCpi {

  /** Unit seed vector e_s (RWR from seed `s`). */
  def unitSeed(n: Int, s: Int): Array[Double] = {
    val q = new Array[Double](n); q(s) = 1.0; q
  }

  /** Uniform seed vector 1/n (PageRank). */
  def uniformSeed(n: Int): Array[Double] = Array.fill(n)(1.0 / n)

  /** Run CPI-IMPL.
    *
    * CPI stops at a superstep fixed before it starts: it accumulates
    * supersteps `sIter..lastSuperstep(c, eps, tIter)`. That bound assumes
    * a seed of unit mass on a dangling-free graph, where Lemma 3 gives
    * `‖x^(i)‖₁ = c(1-c)^i`: it is the first superstep whose iterate has
    * mass below `eps`. `‖q‖₁` is not checked; a seed of other mass stops
    * at the same superstep, so a caller that needs another one passes a
    * finite `tIter`. On a graph with dangling nodes mass leaks, and CPI
    * still runs the analytic count.
    *
    * @param g      graph (weights are implicit: 1/outdeg(src))
    * @param q      seed vector (unit mass for the paper's norm lemmas)
    * @param c      restart probability
    * @param eps    convergence tolerance on ‖x^(i)‖₁
    * @param sIter  first accumulated iteration (inclusive)
    * @param tIter  last accumulated iteration (inclusive); Int.MaxValue = ∞
    * @return accumulated score vector r
    */
  def run(g: LocalGraph, q: Array[Double], c: Double, eps: Double,
          sIter: Int, tIter: Int): Array[Double] = {
    require(q.length == g.n, "seed vector length mismatch")
    require(c > 0 && c < 1, s"restart probability out of range: $c")
    val r = new Array[Double](g.n)
    if (tIter < 0) return r
    var x = new Array[Double](g.n)
    var i = 0
    while (i < g.n) { x(i) = q(i) * c; i += 1 }
    if (sIter <= 0) axpy(r, x)

    val last = lastSuperstep(c, eps, tIter)
    var iter = 1
    while (iter <= last) {
      val nx = new Array[Double](g.n)
      var u = 0
      while (u < g.n) {
        val xu = x(u)
        if (xu != 0.0) {
          val d = g.outDeg(u)
          if (d > 0) {
            val share = xu * (1.0 - c) / d
            var j = g.offsets(u)
            val end = g.offsets(u + 1)
            while (j < end) { nx(g.targets(j)) += share; j += 1 }
          }
        }
        u += 1
      }
      if (iter >= sIter) axpy(r, nx)
      x = nx
      iter += 1
    }
    r
  }

  /** Exact RWR from seed `s` (CPI to convergence). */
  def rwr(g: LocalGraph, s: Int, c: Double, eps: Double = 1e-9): Array[Double] =
    run(g, unitSeed(g.n, s), c, eps, 0, Int.MaxValue)

  /** Exact PageRank (CPI to convergence with uniform seed). */
  def pagerank(g: LocalGraph, c: Double, eps: Double = 1e-9): Array[Double] =
    run(g, uniformSeed(g.n), c, eps, 0, Int.MaxValue)

  /** Number of iterations CPI needs to reach ‖x^(i)‖₁ = c(1-c)^i < eps:
    * the first k with `c(1-c)^k < eps ≤ c(1-c)^(k-1)`.
    */
  def itersToConverge(c: Double, eps: Double): Int =
    math.ceil(math.log(eps / c) / math.log(1.0 - c)).toInt

  /** Last superstep CPI runs for the window ending at `tIter` (0 = none
    * after x^(0)): `min(tIter, max(1, itersToConverge(c, eps)))`. Both
    * CPI engines stop here; see [[run]] for the unit-mass assumption.
    */
  def lastSuperstep(c: Double, eps: Double, tIter: Int): Int =
    if (tIter <= 0) 0 else math.min(tIter, math.max(1, itersToConverge(c, eps)))

  private def axpy(acc: Array[Double], v: Array[Double]): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) += v(i); i += 1 }
  }
}
