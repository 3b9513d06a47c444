package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** TPA on Spark DataFrames — the distributed formulation of
  * Algorithms 2 and 3, with [[Cpi]] as the iteration engine.
  *
  * Preprocessing runs the PageRank CPI tail (`iterations ≥ T`) as a
  * sequence of join–aggregate supersteps; the resulting stranger vector
  * is a (`node`, `score`) DataFrame that can be persisted/written out.
  * The online phase runs only S supersteps from the seed and merges the
  * three parts with a union + groupBy-sum.
  */
object TpaSpark {

  /** Preprocessing phase (Algorithm 2): stranger vector as a DataFrame. */
  def preprocess(spark: SparkSession, normEdges: DataFrame, n: Long,
                 c: Double, eps: Double, t: Int): DataFrame =
    Cpi.run(spark, normEdges, Cpi.uniformSeed(spark, n), c, eps, t, Int.MaxValue)

  /** Online phase (Algorithm 3): family (S supersteps from the seed),
    * neighbor by Lemma-3 scaling, plus the precomputed stranger vector.
    */
  def online(spark: SparkSession, normEdges: DataFrame, stranger: DataFrame,
             c: Double, s: Int, t: Int, seed: Long, eps: Double): DataFrame = {
    val fam = Cpi.run(spark, normEdges, Cpi.unitSeed(spark, seed), c, eps, 0, s - 1)
    val scale = 1.0 + Tpa.neighborFactor(c, s, t)
    fam.select(col("node"), (col("score") * scale).as("score"))
      .unionByName(stranger.select(col("node"), col("score")))
      .groupBy("node").agg(sum("score").as("score"))
  }
}
