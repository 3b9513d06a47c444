package perfbench

/** Summary statistics the benchmark reports. */
object Stats {

  /** Percentiles the tail rule chooses from, lowest first. */
  val Ladder: Seq[Double] = Seq(50.0, 90.0, 99.0, 99.9, 99.99)

  /** Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    require(p > 0 && p <= 100, s"percentile out of range: $p")
    val sorted = xs.toArray.sorted
    val rank = math.ceil(p / 100.0 * sorted.length).toInt
    sorted(math.max(rank, 1) - 1)
  }

  /** Median (average of the two middle values for an even count). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.toArray.sorted
    val h = s.length / 2
    if (s.length % 2 == 1) s(h) else (s(h - 1) + s(h)) / 2.0
  }

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of no samples")
    xs.sum / xs.length
  }

  /** Number of samples strictly beyond the nearest-rank percentile `p`. */
  def beyond(count: Int, p: Double): Int =
    count - math.max(math.ceil(p / 100.0 * count).toInt, 1)

  /** The tail percentiles with at least ten samples beyond them, lowest
    * first; the last one is the highest percentile the sample supports.
    */
  def tailPercentiles(count: Int): Seq[Double] =
    Ladder.filter(p => p > 50.0 && beyond(count, p) >= 10)

  /** Label of a percentile, e.g. `p90` or `p99.9`. */
  def label(p: Double): String =
    if (p == p.floor) s"p${p.toInt}" else s"p$p"
}
