package perfbench

import repro.metrics.Metrics

/** Checks of the benchmark's own arithmetic, then a smoke run of every
  * workload on a 128-node graph. Returns the exit code.
  */
object SelfTest {
  private var failures = 0

  private def expect(cond: Boolean, what: String): Unit = {
    println(s"${if (cond) "ok  " else "FAIL"} $what")
    if (!cond) failures += 1
  }

  private def close(a: Double, b: Double, tol: Double = 1e-12) = math.abs(a - b) <= tol

  def percentiles(): Unit = {
    val xs = (1 to 100).map(_.toDouble)
    expect(Stats.percentile(xs, 50) == 50 && Stats.percentile(xs, 90) == 90, "nearest-rank p50 and p90 of 1..100")
    expect(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5, "median of an even count averages the middle pair")
    expect(Stats.beyond(100, 90) == 10 && Stats.beyond(99, 90) == 9, "samples beyond p90 of 100 and 99")
    expect(Stats.tailPercentiles(100) == Seq(90.0), "100 samples support p90 and no higher")
    expect(Stats.tailPercentiles(99).isEmpty, "99 samples support no tail percentile")
    expect(Stats.tailPercentiles(1000) == Seq(90.0, 99.0), "1000 samples support p99")
    expect(Stats.tailPercentiles(20).isEmpty, "20 samples support only the median")
  }

  def selfTime(): Unit = {
    val spans = Seq(
      Span(0, -1, "bench", "root", 0, 100, 0),
      Span(1, 0, "tpa", "a", 10, 30, 0),
      Span(2, 0, "cpi", "b", 20, 50, 0), // overlaps a
      Span(3, 1, "cpi", "a.child", 12, 15, 0),
      Span(4, 0, "spark.job", "c", 90, 120, -1)) // runs past its parent
    val self = Tracer.selfNs(spans)
    expect(self(0) == 50, s"root self time counts overlapping and clipped children once (got ${self(0)})")
    expect(self(1) == 17 && self(2) == 30 && self(3) == 3, "child self times")
    val byLayer = Tracer.selfByLayer(spans)
    expect(byLayer("cpi") == 33 && byLayer("tpa") == 17, "self time per layer")
  }

  def quality(): Unit = {
    val rng = new scala.util.Random(7)
    for (n <- Seq(1, 2, 17, 500)) {
      // Rounded values give ties, which Spearman must average.
      val a = Array.fill(n)(math.rint(rng.nextDouble() * 10) / 10)
      val b = Array.fill(n)(math.rint(rng.nextDouble() * 10) / 10)
      expect(close(Metrics.l1(a, b), Check.l1(a, b), 1e-9), s"Metrics.l1 matches the reference (n=$n)")
      expect(close(Metrics.spearman(a, b), Check.spearman(a, b), 1e-9),
        s"Metrics.spearman matches the reference with ties (n=$n)")
    }
    val v = Array(0.1, 0.3, 0.2, 0.4)
    expect(close(Metrics.spearman(v, v.map(_ * 2)), 1.0), "Spearman of a monotone image is 1")
    expect(close(Stats.mean(Seq(0.5, 0.25, 0.75)), 0.5), "mean")
  }

  def smoke(): Unit =
    for (w <- Config.Workloads) {
      val t0 = System.nanoTime()
      val r = new Run(Config.tiny(w), 1L, 0.5, traced = true,
        sys.props.getOrElse("perfbench.work", "."))
      r.run()
      val e2e = Main.endToEnd(r.base ++ r.loops.head.samples)
      val layers = Main.perLayer(r)
      val finite = (e2e ++ layers).forall { case (_, m) => !m.value.isNaN && !m.value.isInfinite }
      val scan = layers.toMap.apply("cpi.scan_useful_ratio").value
      expect(r.gate.failed == 0 && r.gate.attempted > 0,
        s"smoke $w: ${r.gate.attempted} operations, ${r.gate.failed} failed ${r.gate.messages.mkString("; ")}")
      expect(finite && scan > 0 && scan <= 1, s"smoke $w: every metric finite, scan ratio $scan in (0, 1]")
      println(f"     smoke $w took ${(System.nanoTime() - t0) / 1e9}%.1f s")
    }

  def run(): Int = {
    percentiles()
    selfTime()
    quality()
    smoke()
    println(if (failures == 0) "self-test passed" else s"self-test: $failures failed")
    if (failures == 0) 0 else 1
  }
}
