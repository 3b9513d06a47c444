package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

import scala.collection.mutable

/** Synthetic graph generators.
  *
  * The Spark generators emit a directed edge list as a DataFrame with
  * columns `src`, `dst` (LongType, node ids in `[0, n)`), deduplicated
  * and free of self-loops. They are deterministic in their `seed` so the
  * DuckDB oracle and the local CSR build see identical edges.
  *
  * RMAT (Chakrabarti et al.) is the stand-in for the paper's real
  * social/hyperlink graphs: power-law degrees plus hierarchical
  * block (community-like) structure — the property TPA's neighbor
  * approximation exploits. Erdős–Rényi is the "random graph with the
  * same number of nodes and edges" of the paper's Figure 6. The
  * driver-side stochastic block model [[communities]] gives explicit
  * planted communities, for Figure 8 and for tests.
  */
object GraphGen {

  /** Default RMAT quadrant probabilities (standard social-graph setting). */
  val RmatA = 0.57; val RmatB = 0.19; val RmatC = 0.19; val RmatD = 0.05

  /** R-MAT graph over `n = 2^scale` nodes with ~`mTarget` distinct edges.
    *
    * Each of `mTarget` edge draws picks one quadrant per bit level:
    * a→(0,0), b→(0,1), c→(1,0), d→(1,1). Duplicates and self-loops are
    * removed, so the realized edge count is slightly below `mTarget`.
    */
  def rmat(spark: SparkSession, scale: Int, mTarget: Long, seed: Long,
           a: Double = RmatA, b: Double = RmatB, c: Double = RmatC): DataFrame = {
    require(scale >= 1 && scale <= 30, s"scale out of range: $scale")
    require(a + b + c < 1.0, "quadrant probabilities must leave room for d")
    var df = spark.range(mTarget)
      .select(lit(0L).as("src"), lit(0L).as("dst"))
    for (level <- 0 until scale) {
      // Materialize the draw once per level so src and dst read the same value.
      df = df
        .withColumn("u", rand(seed * 7919 + level))
        .select(
          (col("src") * 2 + when(col("u") < a + b, 0L).otherwise(1L)).as("src"),
          (col("dst") * 2 + when(col("u") < a ||
            (col("u") >= a + b && col("u") < a + b + c), 0L).otherwise(1L)).as("dst"))
    }
    df.filter(col("src") =!= col("dst")).distinct()
  }

  /** Erdős–Rényi digraph: `mTarget` uniform draws over `[0,n)²`, deduped,
    * self-loops removed. The Figure 6 "random graph" comparator.
    */
  def erdosRenyi(spark: SparkSession, n: Long, mTarget: Long, seed: Long): DataFrame = {
    spark.range(mTarget)
      .select(
        (rand(seed) * n).cast(LongType).as("src"),
        (rand(seed + 1) * n).cast(LongType).as("dst"))
      .filter(col("src") =!= col("dst"))
      .distinct()
  }

  /** Patch dangling nodes (out-degree 0) with a single edge to their
    * successor `(u+1) mod n`, making the transition matrix column
    * stochastic so the paper's norm lemmas (`‖x^(i)‖₁ = c(1-c)^i`) hold
    * exactly. Documented substitution: real KONECT graphs have dangling
    * nodes; the paper's analysis implicitly assumes none.
    */
  def fixDangling(spark: SparkSession, edges: DataFrame, n: Long): DataFrame = {
    val dangling = spark.range(n).toDF("src")
      .join(edges.select("src").distinct(), Seq("src"), "left_anti")
    edges.unionByName(
      dangling.select(col("src"), ((col("src") + 1) % n).as("dst")))
  }

  /** Driver-side stochastic block model: `k` equal blocks; each of `m`
    * draws picks a uniform source and stays inside the source's block
    * with probability `pIn`, otherwise lands uniformly anywhere.
    * Duplicates and self-loops are dropped (at most `10m` draws), then
    * dangling nodes are patched as in [[patchDangling]].
    */
  def communities(n: Int, k: Int, m: Int, pIn: Double, seed: Long): LocalGraph = {
    require(k >= 1 && n % k == 0, s"k=$k must divide n=$n")
    val bs = n / k
    val rng = new scala.util.Random(seed)
    val set = mutable.LinkedHashSet.empty[(Int, Int)]
    var tries = 0
    while (set.size < m && tries < m * 10) {
      val u = rng.nextInt(n)
      val v = if (rng.nextDouble() < pIn) (u / bs) * bs + rng.nextInt(bs)
              else rng.nextInt(n)
      if (u != v) set += ((u, v))
      tries += 1
    }
    val pairs = patchDangling(n, set.toSeq)
    LocalGraph.fromEdges(n, pairs.map(_._1).toArray, pairs.map(_._2).toArray)
  }

  /** Driver-side [[fixDangling]]: append `(u, (u+1) mod n)` for every
    * `u` in `[0, n)` that is no source in `pairs`.
    */
  def patchDangling(n: Int, pairs: Seq[(Int, Int)]): Seq[(Int, Int)] = {
    val has = new Array[Boolean](n)
    pairs.foreach(p => has(p._1) = true)
    pairs ++ (0 until n).collect { case u if !has(u) => (u, (u + 1) % n) }
  }

  /** Row-normalized weights: each edge (src, dst) gets `w = 1/outdeg(src)`,
    * i.e. the entries of Ã used by `x^(i+1) = (1-c) Ã^T x^(i)`.
    */
  def normalize(edges: DataFrame): DataFrame = {
    val deg = edges.groupBy("src").agg(count(lit(1)).as("outdeg"))
    edges.join(deg, Seq("src"))
      .select(col("src"), col("dst"), (lit(1.0) / col("outdeg")).as("w"))
  }

  /** Convenience: generate an RMAT graph, patch dangling nodes, return
    * raw edges (use [[normalize]] for weighted edges).
    */
  def rmatGraph(spark: SparkSession, scale: Int, mTarget: Long, seed: Long): DataFrame =
    fixDangling(spark, rmat(spark, scale, mTarget, seed), 1L << scale)

  /** Convenience: Erdős–Rényi with dangling patch. */
  def erGraph(spark: SparkSession, n: Long, mTarget: Long, seed: Long): DataFrame =
    fixDangling(spark, erdosRenyi(spark, n, mTarget, seed), n)
}
