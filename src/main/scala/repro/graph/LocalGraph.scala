package repro.graph

import org.apache.spark.sql.DataFrame

/** Immutable CSR (compressed sparse row) digraph on the driver.
  *
  * Substrate for the sequential competitors (RPPR/BRPPR push, HubPPR
  * walks and backward push, NB-LIN/BEAR dense builds) and for the exact
  * ground-truth RWR (`LocalCpi`) — all of which are inherently
  * single-machine algorithms in their original papers (C++/MATLAB on
  * one core). The distributed path (`Cpi`, `TpaSpark`) never collects
  * the graph.
  *
  * `offsets` has length n+1; out-neighbors of `u` are
  * `targets(offsets(u) until offsets(u+1))`.
  */
final class LocalGraph(val n: Int, val offsets: Array[Int], val targets: Array[Int]) {
  require(offsets.length == n + 1, s"offsets length ${offsets.length} != n+1")

  /** Number of directed edges. */
  def m: Int = targets.length

  /** Out-degree of node `u`. */
  def outDeg(u: Int): Int = offsets(u + 1) - offsets(u)

  /** Apply `f` to each out-neighbor of `u`. */
  @inline def foreachOut(u: Int)(f: Int => Unit): Unit = {
    var i = offsets(u)
    val end = offsets(u + 1)
    while (i < end) { f(targets(i)); i += 1 }
  }

  /** Graph with every edge reversed (in-neighbor access), built lazily —
    * needed by HubPPR's backward push.
    */
  lazy val reverse: LocalGraph = {
    val src = new Array[Int](m)
    val dst = new Array[Int](m)
    var u = 0; var i = 0
    while (u < n) {
      val end = offsets(u + 1)
      while (i < end) { src(i) = targets(i); dst(i) = u; i += 1 }
      u += 1
    }
    LocalGraph.fromEdges(n, src, dst)
  }

  /** In-degree of node `u` (via the reverse graph). */
  def inDeg(u: Int): Int = reverse.outDeg(u)
}

object LocalGraph {

  /** Build CSR from parallel edge arrays (src(i) -> dst(i)); every id
    * must lie in `[0, n)`.
    */
  def fromEdges(n: Int, src: Array[Int], dst: Array[Int]): LocalGraph = {
    require(src.length == dst.length)
    val deg = new Array[Int](n)
    var i = 0
    while (i < src.length) {
      val u = src(i); val v = dst(i)
      require(u >= 0 && u < n, s"edge $i: src id $u outside [0, $n)")
      require(v >= 0 && v < n, s"edge $i: dst id $v outside [0, $n)")
      deg(u) += 1; i += 1
    }
    val offsets = new Array[Int](n + 1)
    i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val pos = java.util.Arrays.copyOf(offsets, n)
    val targets = new Array[Int](src.length)
    i = 0
    while (i < src.length) {
      val u = src(i); targets(pos(u)) = dst(i); pos(u) += 1; i += 1
    }
    new LocalGraph(n, offsets, targets)
  }

  /** Narrow a `LongType` node id to an array index in `[0, n)`. */
  def nodeId(id: Long, n: Int): Int = {
    require(id >= 0 && id < n, s"node id $id outside [0, $n)")
    id.toInt
  }

  /** Collect a `(src, dst)` edge DataFrame into a CSR graph with `n` nodes. */
  def fromDF(edges: DataFrame, n: Int): LocalGraph = {
    val rows = edges.select("src", "dst").collect()
    val src = new Array[Int](rows.length)
    val dst = new Array[Int](rows.length)
    var i = 0
    while (i < rows.length) {
      src(i) = nodeId(rows(i).getLong(0), n)
      dst(i) = nodeId(rows(i).getLong(1), n)
      i += 1
    }
    fromEdges(n, src, dst)
  }
}
