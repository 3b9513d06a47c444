package repro.bench

import repro.experiments.SparkScale
import repro.graph.Datasets

/** Distributed-dataflow scalability: the Spark DataFrame engine
  * (join–aggregate supersteps) runs TPA's two phases on a
  * large analog where every dense competitor is feasibility-gated out —
  * the reproduction of "only TPA successfully preprocesses billion-scale
  * graphs" at our scale.
  */
class SparkScaleBench extends BenchBase {

  test("distributed TPA (DataFrame) completes on a large analog") {
    val report = SparkScale.run(spark, Datasets.wikilink)
    banner("Distributed TPA on wikilink-s", report)
    // The report embeds L1-vs-exact values; SparkScale already computed
    // them against the driver-side ground truth. Re-assert the bound via
    // a cheap parse: every L1 cell must be below the Theorem 2 bound.
    val bound = repro.core.Tpa.accuracyBound(
      repro.experiments.ExpConfig.c, Datasets.wikilink.s)
    val l1s = report.linesIterator
      .filter(_.startsWith("| DataFrame"))
      .map(_.split("\\|")(4).trim.toDouble)
      .toSeq
    assert(l1s.nonEmpty && l1s.forall(_ <= bound + 1e-6),
      s"L1 values $l1s exceed bound $bound")
  }
}
