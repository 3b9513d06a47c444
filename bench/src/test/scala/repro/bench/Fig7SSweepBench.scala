package repro.bench

import repro.core.Tpa
import repro.experiments.{Experiments, ExpConfig}

/** Figure 7: effect of S (T fixed at 10) on LiveJournal and Pokec.
  * Paper: online time grows sharply with S while L1 error falls — S
  * trades accuracy for speed.
  */
class Fig7SSweepBench extends BenchBase {

  test("Fig 7: growing S lowers L1 error and raises online cost") {
    val rows = Experiments.fig7SSweep(spark)
    banner("Fig 7: effect of S (T=10)", Experiments.fig7Table(rows))
    for ((name, sweep) <- rows.groupBy(_.dataset)) {
      val byS = sweep.map(r => r.s -> r.avgL1).toMap
      // L1 error decreases from S=1 to S=8; work grows with S
      assert(byS(8) < byS(1), s"$name: L1 did not fall (S=1 ${byS(1)} vs S=8 ${byS(8)})")
    }
    // analytic bound falls monotonically
    assert(Tpa.accuracyBound(ExpConfig.c, 8) < Tpa.accuracyBound(ExpConfig.c, 1))
  }
}
