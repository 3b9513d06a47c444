package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.GraphGen
import repro.metrics.Metrics

/** TPA (Algorithms 2 & 3) correctness: the Lemma 2 / Lemma 4 / Theorem 2
  * accuracy bounds hold on every tested graph and seed, the neighbor
  * scaling factor matches its closed form, and TPA decomposes as
  * TPA-NA + stranger.
  */
class TpaSpec extends AnyFunSuite {
  val c = 0.15
  val eps = 1e-12

  val graphs = Seq(
    "random-200" -> TestGraphs.random(200, 1200, 11),
    "communities-300" -> GraphGen.communities(300, 10, 2400, 0.9, 12),
    "random-120" -> TestGraphs.random(120, 500, 13))

  for ((name, g) <- graphs; seed <- Seq(0, 3, 7, 15, 21, 33, 47, 59, 61, 83)) {
    test(s"Theorem 2: ‖r_CPI − r_TPA‖₁ ≤ 2(1-c)^S on $name seed ${seed % g.n}") {
      val s = 4; val t = 10
      val sd = seed % g.n
      val model = Tpa.preprocess(g, c, eps, t)
      val tpa = Tpa.online(g, model, s, sd, eps)
      val exact = LocalCpi.rwr(g, sd, c, eps)
      assert(Metrics.l1(exact, tpa) <= Tpa.accuracyBound(c, s) + 1e-9)
    }
  }

  for ((name, g) <- graphs; t <- Seq(5, 10, 15)) {
    test(s"Lemma 2: ‖r_stranger − p_stranger‖₁ ≤ 2(1-c)^T on $name T=$t") {
      val sd = 1
      val rStr = LocalCpi.run(g, LocalCpi.unitSeed(g.n, sd), c, eps, t, Int.MaxValue)
      val pStr = LocalCpi.run(g, LocalCpi.uniformSeed(g.n), c, eps, t, Int.MaxValue)
      assert(Metrics.l1(rStr, pStr) <= 2 * math.pow(1 - c, t) + 1e-9)
    }
  }

  for ((name, g) <- graphs; (s, t) <- Seq((2, 8), (4, 10), (3, 12))) {
    test(s"Lemma 4: ‖r_nbr − r̃_nbr‖₁ ≤ 2((1-c)^S − (1-c)^T) on $name S=$s T=$t") {
      val sd = 2
      val q = LocalCpi.unitSeed(g.n, sd)
      val rNbr = LocalCpi.run(g, q, c, 0.0, s, t - 1)
      val fam = Tpa.family(g, c, s, sd, eps)
      val factor = Tpa.neighborFactor(c, s, t)
      val approx = fam.map(_ * factor)
      val bound = 2 * (math.pow(1 - c, s) - math.pow(1 - c, t))
      assert(Metrics.l1(rNbr, approx) <= bound + 1e-9)
    }
  }

  for ((s, t) <- Seq((1, 2), (2, 5), (4, 10), (4, 40), (3, 20), (2, 15))) {
    test(s"neighborFactor closed form equals Lemma-3 norm ratio (S=$s, T=$t)") {
      val g = graphs.head._2
      val q = LocalCpi.unitSeed(g.n, 9)
      val famN = Metrics.norm1(LocalCpi.run(g, q, c, 0.0, 0, s - 1))
      val nbrN = Metrics.norm1(LocalCpi.run(g, q, c, 0.0, s, t - 1))
      assert(math.abs(Tpa.neighborFactor(c, s, t) - nbrN / famN) < 1e-9)
    }
  }

  for ((name, g) <- graphs) {
    test(s"TPA = TPA-NA + stranger on $name") {
      val s = 4; val t = 10; val sd = 5
      val model = Tpa.preprocess(g, c, eps, t)
      val tpa = Tpa.online(g, model, s, sd, eps)
      val na = Tpa.onlineNA(g, c, s, t, sd, eps)
      val sum = Array.tabulate(g.n)(i => na(i) + model.stranger(i))
      assert(Metrics.l1(tpa, sum) < 1e-12)
    }
  }

  for ((name, g) <- graphs) {
    test(s"TPA total mass ≈ 1 on dangling-free $name") {
      val model = Tpa.preprocess(g, c, eps, 10)
      val tpa = Tpa.online(g, model, 4, 0, eps)
      // ‖family‖+‖neighbor~‖ = 1-(1-c)^T exactly; ‖stranger~‖ = (1-c)^T
      assert(math.abs(Metrics.norm1(tpa) - 1.0) < 1e-7)
    }
  }

  test("stranger vector is seed-independent (depends only on graph, c, T)") {
    val g = graphs.head._2
    val m1 = Tpa.preprocess(g, c, eps, 10)
    val m2 = Tpa.preprocess(g, c, eps, 10)
    assert(Metrics.l1(m1.stranger, m2.stranger) == 0.0)
  }

  test("stranger norm equals (1-c)^T on dangling-free graphs") {
    val g = graphs(1)._2
    val model = Tpa.preprocess(g, c, eps, 8)
    assert(math.abs(Metrics.norm1(model.stranger) - math.pow(1 - c, 8)) < 1e-7)
  }

  test("accuracy improves as S grows (bound and measured, averaged over seeds)") {
    val g = graphs(1)._2
    val t = 12
    val model = Tpa.preprocess(g, c, eps, t)
    val seeds = Seq(0, 10, 20, 30, 40)
    def avgErr(s: Int): Double = seeds.map { sd =>
      Metrics.l1(LocalCpi.rwr(g, sd, c, eps), Tpa.online(g, model, s, sd, eps))
    }.sum / seeds.size
    assert(avgErr(6) < avgErr(1))
    assert(Tpa.accuracyBound(c, 6) < Tpa.accuracyBound(c, 1))
  }

  test("neighborFactor rejects invalid S/T") {
    intercept[IllegalArgumentException](Tpa.neighborFactor(c, 0, 5))
    intercept[IllegalArgumentException](Tpa.neighborFactor(c, 5, 4))
    // the model must match the graph, and the seed must be one of its nodes
    val g = graphs.head._2
    val model = Tpa.preprocess(g, c, eps, 10)
    for (stranger <- Seq(model.stranger :+ 0.0, model.stranger.init)) {
      val e = intercept[IllegalArgumentException](
        Tpa.online(g, model.copy(stranger = stranger), 4, 0, eps))
      assert(e.getMessage.contains(s"n=${g.n}"), e.getMessage)
    }
    for (seed <- Seq(-1, g.n))
      intercept[IllegalArgumentException](Tpa.online(g, model, 4, seed, eps))
  }

  test("Model.memoryBytes is 8 bytes per node") {
    val g = graphs.head._2
    val model = Tpa.preprocess(g, c, eps, 10)
    assert(model.memoryBytes == 8L * g.n)
  }
}
