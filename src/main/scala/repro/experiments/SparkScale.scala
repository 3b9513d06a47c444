package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.{Cpi, TpaSpark}
import repro.graph.{Datasets, DatasetSpec, GraphGen}
import repro.metrics.Metrics

/** Distributed-dataflow reproduction of the scalability claim: TPA's
  * two phases run as Spark jobs — the stranger phase (PageRank-like CPI
  * tail) and the family phase — as DataFrame join–aggregate supersteps.
  * Accuracy is checked against the driver-side exact RWR; times show the
  * engine completes the phases on the largest analogs, where the dense
  * competitors are gated out entirely.
  */
object SparkScale {
  import Runner._

  /** One distributed TPA run: preprocessing and online wall clock, and
    * the online vector's accuracy against the driver-side exact RWR.
    */
  final case class Row(dataset: String, n: Int, prepMs: Double, onlineMs: Double,
                       l1: Double, spearman: Double)

  def run(spark: SparkSession, spec: DatasetSpec = Datasets.wikilink): Row = {
    val c = ExpConfig.c; val eps = ExpConfig.eps
    val edges = Datasets.edges(spark, spec)
    val norm = GraphGen.normalize(edges).persist()
    norm.count()
    val g = Datasets.local(spark, spec)
    val seed = Datasets.seedNodes(spec, 1).head
    val ex = exact(g, spec, seed)

    val prepDf = time {
      val df = TpaSpark.preprocess(spark, norm, spec.n.toLong, c, eps, spec.t).persist()
      df.count(); df
    }
    val onlineDf = time {
      Cpi.toDense(
        TpaSpark.online(spark, norm, prepDf.value, c, spec.s, spec.t, seed.toLong, eps),
        spec.n)
    }
    Row(spec.name, spec.n, prepDf.ms, onlineDf.ms,
        Metrics.l1(onlineDf.value, ex), Metrics.spearman(onlineDf.value, ex))
  }

  def report(r: Row): String =
    s"dataset: ${r.dataset} (n=${r.n})\n\n" +
      table(Seq("engine", "prep time", "online time", "L1 vs exact", "Spearman"),
            Seq(Seq("DataFrame", fmtMs(r.prepMs), fmtMs(r.onlineMs),
                    fmtSci(r.l1), f"${r.spearman}%.4f")))
}
