package perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Correctness gate. Every operation the benchmark attempts runs through
  * [[op]]; a throw or a failed [[check]] inside it marks it failed, and a
  * failed operation fails the run.
  */
final class Gate {
  var attempted = 0L
  var failed = 0L
  val messages: ArrayBuffer[String] = ArrayBuffer.empty
  private var ok = true

  def op(what: => String)(body: => Unit): Unit = {
    attempted += 1
    ok = true
    try body
    catch { case NonFatal(e) => check(false, s"$what threw $e") }
    if (!ok) failed += 1
  }

  def check(cond: Boolean, msg: => String): Unit =
    if (!cond) {
      ok = false
      if (messages.length < 20) messages += msg
    }
}

/** Reference arithmetic for the checks, independent of `repro.metrics`. */
object Check {

  def l1(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "length mismatch")
    var s = 0.0
    var i = 0
    while (i < a.length) { s += math.abs(a(i) - b(i)); i += 1 }
    s
  }

  def sum(a: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { s += a(i); i += 1 }
    s
  }

  /** ‖Σ_{i≥t} x^(i)‖₁ for a stochastic walk, `(1-c)^t`, less what CPI
    * leaves out once `c(1-c)^i < eps`: at most `eps·(1-c)/c`.
    */
  def tailSlack(c: Double, eps: Double): Double = eps * (1 - c) / c + 1e-12

  /** Spearman correlation with mid-ranks for ties, by definition:
    * Pearson correlation of the rank vectors.
    */
  def spearman(a: Array[Double], b: Array[Double]): Double = {
    def ranks(x: Array[Double]): Array[Double] = {
      val idx = x.indices.sortWith((i, j) => x(i) < x(j)).toArray
      val r = new Array[Double](x.length)
      var i = 0
      while (i < idx.length) {
        var j = i
        while (j + 1 < idx.length && x(idx(j + 1)) == x(idx(i))) j += 1
        for (k <- i to j) r(idx(k)) = (i + j) / 2.0 + 1.0
        i = j + 1
      }
      r
    }
    val ra = ranks(a); val rb = ranks(b)
    val ma = ra.sum / ra.length; val mb = rb.sum / rb.length
    val cov = ra.indices.map(i => (ra(i) - ma) * (rb(i) - mb)).sum
    val va = ra.map(v => (v - ma) * (v - ma)).sum
    val vb = rb.map(v => (v - mb) * (v - mb)).sum
    if (va == 0 || vb == 0) 0.0 else cov / math.sqrt(va * vb)
  }
}
