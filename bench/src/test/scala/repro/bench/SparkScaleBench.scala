package repro.bench

import repro.core.Tpa
import repro.experiments.{ExpConfig, SparkScale}
import repro.graph.Datasets

/** Distributed-dataflow scalability: the Spark DataFrame engine
  * (join–aggregate supersteps) runs TPA's two phases on a
  * large analog where every dense competitor is feasibility-gated out —
  * the reproduction of "only TPA successfully preprocesses billion-scale
  * graphs" at our scale.
  */
class SparkScaleBench extends BenchBase {

  test("distributed TPA (DataFrame) completes on a large analog") {
    val row = SparkScale.run(spark, Datasets.wikilink)
    banner("Distributed TPA on wikilink-s", SparkScale.report(row))
    val bound = Tpa.accuracyBound(ExpConfig.c, Datasets.wikilink.s)
    assert(row.l1 <= bound + 1e-6, s"L1 ${row.l1} exceeds bound $bound")
  }
}
