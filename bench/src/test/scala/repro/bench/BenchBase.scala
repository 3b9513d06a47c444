package repro.bench

import repro.SparkSpec

/** Base for bench suites: shares the SparkSession and prints each
  * experiment's table under a recognizable banner. The tables are the
  * ones the jobs print, the measured side of EXPERIMENTS.md.
  */
trait BenchBase extends SparkSpec {
  def banner(title: String, body: String): Unit = {
    println()
    println(s"==================== $title ====================")
    println(body)
  }
}
