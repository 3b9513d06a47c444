package repro.graph

import org.scalatest.funsuite.AnyFunSuite

/** CSR construction correctness against a naive adjacency-map build,
  * plus reverse-graph and degree invariants.
  */
class LocalGraphSpec extends AnyFunSuite {

  private def randomPairs(n: Int, m: Int, seed: Long): (Array[Int], Array[Int]) = {
    val rng = new scala.util.Random(seed)
    val src = Array.fill(m)(rng.nextInt(n))
    val dst = Array.fill(m)(rng.nextInt(n))
    (src, dst)
  }

  for (seed <- 0 until 10) {
    test(s"CSR matches naive adjacency (seed $seed)") {
      val n = 30 + seed
      val (src, dst) = randomPairs(n, 200, seed)
      val g = LocalGraph.fromEdges(n, src, dst)
      val naive = Array.fill(n)(scala.collection.mutable.ArrayBuffer.empty[Int])
      src.indices.foreach(i => naive(src(i)) += dst(i))
      for (u <- 0 until n) {
        val got = scala.collection.mutable.ArrayBuffer.empty[Int]
        g.foreachOut(u)(got += _)
        assert(got.sorted == naive(u).sorted, s"node $u")
      }
    }
  }

  for (seed <- 0 until 5) {
    test(s"reverse of reverse is the original edge multiset (seed $seed)") {
      val n = 25
      val (src, dst) = randomPairs(n, 120, 100 + seed)
      val g = LocalGraph.fromEdges(n, src, dst)
      val rr = g.reverse.reverse
      def edgeSet(h: LocalGraph): Seq[(Int, Int)] = {
        val b = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
        for (u <- 0 until h.n) h.foreachOut(u)(v => b += ((u, v)))
        b.sorted.toSeq
      }
      assert(edgeSet(rr) == edgeSet(g))
    }
  }

  test("out-degrees sum to m; in-degrees sum to m") {
    val (src, dst) = randomPairs(40, 300, 7)
    val g = LocalGraph.fromEdges(40, src, dst)
    assert((0 until g.n).map(g.outDeg).sum == g.m)
    assert((0 until g.n).map(g.inDeg).sum == g.m)
  }

  test("in-degree counts incoming edges") {
    val g = LocalGraph.fromEdges(4, Array(0, 1, 2), Array(3, 3, 3))
    assert(g.inDeg(3) == 3 && g.inDeg(0) == 0)
    assert(g.outDeg(3) == 0 && g.outDeg(0) == 1)
  }

  test("empty graph is valid") {
    val g = LocalGraph.fromEdges(5, Array.empty[Int], Array.empty[Int])
    assert(g.m == 0 && (0 until 5).forall(g.outDeg(_) == 0))
  }

  test("fromEdges rejects an id outside [0, n)") {
    for ((src, dst, id) <- Seq((Array(0, 5), Array(1, 2), 5), (Array(0, 1), Array(1, -1), -1))) {
      val e = intercept[IllegalArgumentException](LocalGraph.fromEdges(5, src, dst))
      assert(e.getMessage.contains(s"id $id "), e.getMessage)
    }
  }

  test("offsets length is validated") {
    intercept[IllegalArgumentException] {
      new LocalGraph(3, Array(0, 1), Array(0))
    }
  }
}
