package repro.experiments

import repro.SparkSpec
import repro.core.Tpa
import repro.graph.Datasets

/** The experiment layer on the smallest analog: the Fig 6 and Fig 7
  * functions return typed rows that obey the paper's bounds, and each
  * renders to one table line per row.
  */
class ExperimentsSpec extends SparkSpec {
  private val spec = Datasets.slashdot

  private def tableLines(table: String): Int = table.trim.split("\n").length

  test("Fig 7 on slashdot-s: L1 obeys Theorem 2 at every S and falls from S=1 to S=8") {
    val rows = Experiments.fig7SSweep(spark, Seq(spec))
    assert(rows.map(_.s) == (1 to 8))
    for (r <- rows)
      assert(r.avgL1 <= Tpa.accuracyBound(ExpConfig.c, r.s),
        s"S=${r.s}: L1 ${r.avgL1} > bound ${Tpa.accuracyBound(ExpConfig.c, r.s)}")
    assert(rows.last.avgL1 < rows.head.avgL1,
      s"L1 did not fall (S=1 ${rows.head.avgL1} vs S=8 ${rows.last.avgL1})")
    assert(tableLines(Experiments.fig7Table(rows)) == rows.size + 2)
  }

  test("Fig 6 on slashdot-s: one row per spec, with finite values") {
    val rows = Experiments.fig6Neighbor(spark, Seq(spec))
    assert(rows.map(_.dataset) == Seq(spec.name))
    for (r <- rows; x <- Seq(r.l1Real, r.l1Random, r.spearmanReal, r.spearmanRandom))
      assert(java.lang.Double.isFinite(x), s"$r")
    assert(tableLines(Experiments.fig6Table(rows)) == rows.size + 2)
  }
}
