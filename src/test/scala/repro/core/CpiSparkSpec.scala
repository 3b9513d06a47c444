package repro.core

import repro.SparkSpec
import repro.graph.{GraphGen, LocalGraph}
import repro.metrics.Metrics

/** The distributed CPI engine (DataFrame) agrees with the driver-side
  * reference implementation iteration-for-iteration and at convergence,
  * and the distributed TPA phases match the local ones.
  */
class CpiSparkSpec extends SparkSpec {
  val c = 0.15

  private lazy val edges = GraphGen.rmatGraph(spark, 7, 600, 17).cache()
  private lazy val norm = GraphGen.normalize(edges).cache()
  private lazy val g: LocalGraph = LocalGraph.fromDF(edges, 128)

  for (tIter <- Seq(0, 1, 2, 4, 8)) {
    test(s"DataFrame CPI equals local CPI for iterations 0..$tIter") {
      val df = Cpi.run(spark, norm, Cpi.unitSeed(spark, 5), c, 0.0, 0, tIter)
      val local = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 5), c, 0.0, 0, tIter)
      assert(Metrics.l1(Cpi.toDense(df, g.n), local) < 1e-10)
    }
  }

  for ((s, t) <- Seq((2, 5), (4, 9))) {
    test(s"DataFrame CPI partial window [$s,$t] equals local") {
      val df = Cpi.run(spark, norm, Cpi.unitSeed(spark, 9), c, 0.0, s, t)
      val local = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 9), c, 0.0, s, t)
      assert(Metrics.l1(Cpi.toDense(df, g.n), local) < 1e-10)
    }
  }

  for ((label, eps) <- Seq("1e-4" -> 1e-4, "1e-3" -> 1e-3)) {
    test(s"DataFrame CPI converges to exact RWR (ε=$label window)") {
      val df = Cpi.rwr(spark, norm, 3, c, eps)
      val local = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 3), c, eps, 0, Int.MaxValue)
      assert(Metrics.l1(Cpi.toDense(df, g.n), local) < 1e-9)
    }
  }

  test("DataFrame PageRank equals local PageRank (ε=1e-4 window)") {
    val eps = 1e-4
    val df = Cpi.pagerank(spark, norm, g.n.toLong, c, eps)
    val local = LocalCpi.run(g, LocalCpi.uniformSeed(g.n), c, eps, 0, Int.MaxValue)
    assert(Metrics.l1(Cpi.toDense(df, g.n), local) < 1e-9)
  }

  test("DataFrame CPI with tIter < 0 returns an empty score vector") {
    val df = Cpi.run(spark, norm, Cpi.unitSeed(spark, 0), c, 0.0, 0, -1)
    assert(df.count() == 0)
  }

  test("toDense rejects a node id outside [0, n)") {
    import spark.implicits._
    val scores = Seq((1L, 0.5), ((1L << 32) + 1, 0.5)).toDF("node", "score")
    val e = intercept[IllegalArgumentException](Cpi.toDense(scores, 4))
    assert(e.getMessage.contains("4294967297"), e.getMessage)
  }

  test("TpaSpark preprocess equals local stranger vector (ε=1e-4)") {
    val eps = 1e-4
    val t = 6
    val df = TpaSpark.preprocess(spark, norm, g.n.toLong, c, eps, t)
    val local = LocalCpi.run(g, LocalCpi.uniformSeed(g.n), c, eps, t, Int.MaxValue)
    assert(Metrics.l1(Cpi.toDense(df, g.n), local) < 1e-9)
  }

  test("TpaSpark online equals local TPA online (shared ε=1e-4 stranger)") {
    val eps = 1e-4
    val s = 3; val t = 6; val seed = 11
    val strangerDf = TpaSpark.preprocess(spark, norm, g.n.toLong, c, eps, t)
    val sparkTpa = Cpi.toDense(
      TpaSpark.online(spark, norm, strangerDf, c, s, t, seed.toLong, eps), g.n)
    val localModel = Tpa.Model(
      LocalCpi.run(g, LocalCpi.uniformSeed(g.n), c, eps, t, Int.MaxValue), c, t)
    val localTpa = Tpa.online(g, localModel, s, seed, eps)
    assert(Metrics.l1(sparkTpa, localTpa) < 1e-9)
  }

  test("distributed TPA satisfies the Theorem 2 bound (ε=1e-4)") {
    val eps = 1e-4
    val s = 3; val t = 8; val seed = 21
    val strangerDf = TpaSpark.preprocess(spark, norm, g.n.toLong, c, eps, t)
    val sparkTpa = Cpi.toDense(
      TpaSpark.online(spark, norm, strangerDf, c, s, t, seed.toLong, eps), g.n)
    val exact = LocalCpi.rwr(g, seed, c, 1e-12)
    assert(Metrics.l1(exact, sparkTpa) <= Tpa.accuracyBound(c, s) + 1e-3)
  }
}
