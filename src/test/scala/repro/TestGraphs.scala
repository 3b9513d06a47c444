package repro

import repro.graph.{GraphGen, LocalGraph}

/** Deterministic driver-side graph builders for unit tests (no Spark).
  * All are dangling-free so the paper's norm lemmas hold exactly.
  */
object TestGraphs {

  /** Random digraph: `m` draws over [0,n)², dedup, no self-loops, then
    * dangling nodes patched with an edge to their successor.
    */
  def random(n: Int, m: Int, seed: Long): LocalGraph = {
    val rng = new scala.util.Random(seed)
    val set = scala.collection.mutable.LinkedHashSet.empty[(Int, Int)]
    var tries = 0
    while (set.size < m && tries < m * 10) {
      val u = rng.nextInt(n); val v = rng.nextInt(n)
      if (u != v) set += ((u, v))
      tries += 1
    }
    fromPairs(n, GraphGen.patchDangling(n, set.toSeq))
  }

  /** Directed cycle 0→1→…→n-1→0. */
  def cycle(n: Int): LocalGraph =
    fromPairs(n, (0 until n).map(u => (u, (u + 1) % n)))

  /** Complete digraph (no self-loops). */
  def clique(n: Int): LocalGraph =
    fromPairs(n, for { u <- 0 until n; v <- 0 until n if u != v } yield (u, v))

  /** A graph with a deliberate dangling node (node n-1 has no out-edges). */
  def withDangling(n: Int, m: Int, seed: Long): LocalGraph = {
    val rng = new scala.util.Random(seed)
    val set = scala.collection.mutable.LinkedHashSet.empty[(Int, Int)]
    var tries = 0
    while (set.size < m && tries < m * 10) {
      val u = rng.nextInt(n - 1) // never emit from n-1
      val v = rng.nextInt(n)
      if (u != v) set += ((u, v))
      tries += 1
    }
    // make sure every other node has an out-edge
    val pairs = GraphGen.patchDangling(n - 1, set.toSeq)
    fromPairs(n, pairs)
  }

  private def fromPairs(n: Int, pairs: Seq[(Int, Int)]): LocalGraph =
    LocalGraph.fromEdges(n, pairs.map(_._1).toArray, pairs.map(_._2).toArray)

  /** Exact RWR via Breeze dense solve: `r = c (I − (1-c) Ã^T)^{-1} q`.
    * Independent of both CPI and PI — the strongest test oracle here.
    */
  def denseSolve(g: LocalGraph, q: Array[Double], c: Double): Array[Double] = {
    import breeze.linalg.{inv, DenseMatrix, DenseVector}
    val w = DenseMatrix.zeros[Double](g.n, g.n)
    var u = 0
    while (u < g.n) {
      val d = g.outDeg(u)
      if (d > 0) {
        val share = (1.0 - c) / d
        g.foreachOut(u)(v => w(v, u) += share)
      }
      u += 1
    }
    val h = DenseMatrix.eye[Double](g.n) - w
    (inv(h) * (DenseVector(q) *:* c)).toArray
  }
}
