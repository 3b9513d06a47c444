package perfbench

import Stats.{mean, median}

/** A reported value with its unit and the number of samples behind it. */
final case class Metric(value: Double, unit: String, samples: Int, note: String = "")

/** Entry point: `--workload W --seed N --seconds S --trace 0|1`, or
  * `--self-test`. Prints a human report, then one JSON line with the
  * end-to-end metrics (untraced) or the per-layer metrics (traced).
  * Exits 1 if any operation failed a check.
  */
object Main {

  /** Every gated end-to-end metric, reported by every workload. Timings
    * are CPU time (see [[Samples]] for whose), which host steal does not
    * inflate. `queries_per_s` is printed but not gated: on index-truth it
    * rests on a dozen calls, and one slow call moves it by a quarter.
    */
  def endToEnd(s: Samples): Seq[(String, Metric)] =
    timings(s, _.cpu.toSeq, "cpu").filter(_._1 != "queries_per_s") ++ Seq(
    "l1_mean" -> Metric(mean(s.l1.toSeq), "1", s.l1.length, "mean L1 of TPA vs exact RWR"),
    "spearman_mean" -> Metric(mean(s.spearman.toSeq), "1", s.spearman.length,
      "mean Spearman of TPA vs exact RWR"))

  def timings(s: Samples, clock: Timings => Seq[Double], name: String): Seq[(String, Metric)] = Seq(
    "setup_s" -> Metric(median(clock(s.setup)), "s", s.setup.length, s"$name, median of set-ups"),
    "query_ms_p50" -> Metric(median(clock(s.query)), "ms", s.query.length, name),
    "queries_per_s" -> Metric(s.query.length / clock(s.query).sum * 1000, "1/s", s.query.length,
      s"queries / $name time inside them"),
    "preprocess_ms" -> Metric(median(clock(s.preprocess)), "ms", s.preprocess.length, name),
    "truth_seeds_per_s" -> Metric(1000 / median(clock(s.truth)), "1/s", s.truth.length,
      s"1 / median $name time of exact RWR + TPA + L1 + Spearman"))

  val Layers: Seq[String] = Seq("bench", "graph", "cpi", "tpa", "metrics", "spark", "spark.job", "baselines")

  /** Every per-layer metric, reported by every workload; a layer a
    * workload does not call reads 0.
    */
  def perLayer(r: Run): Seq[(String, Metric)] = {
    val spans = r.tracer.spans.toSeq
    val untraced = r.loops.find(!_.traced).get
    val traced = r.loops.find(_.traced).get
    val loopSpans = spans.slice(traced.spanFrom, traced.spanTo)
    val probeSpans = spans.drop(r.probeSpanFrom).filter(_.parent < 0)
    def med(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else median(xs)
    def ms(ss: Seq[Span]): Metric = Metric(med(ss.map(_.durNs / 1e6)), "ms", ss.length)
    def alloc(ss: Seq[Span]): Metric = Metric(med(ss.map(_.allocBytes.toDouble)), "bytes", ss.length)
    def named(ss: Seq[Span], name: String) = ss.filter(_.name == name)

    val rwr = named(spans, "LocalCpi.rwr")
    val prep = named(spans, "Tpa.preprocess")
    val fam = named(probeSpans, "Tpa.family")
    val onl = named(probeSpans, "Tpa.online")
    val cfg = r.cfg
    val n = cfg.graph.n.toDouble

    // CPI work of one loop operation, computed from the frontier profiles.
    // online-sparse and spark-tpa: the family supersteps of one query.
    // index-truth: one truth seed (exact RWR + family) plus its share of
    // the round's Tpa.preprocess.
    def inputs(p: Profile) = (p.nnz.init.map(_.toDouble).sum, p.edges.init.map(_.toDouble).sum, p.supersteps)
    def avg(ps: Seq[Profile]) = {
      val xs = ps.map(inputs)
      (mean(xs.map(_._1)), mean(xs.map(_._2)), mean(xs.map(_._3.toDouble)))
    }
    val (famNnz, famEdges, famSteps) = avg(r.familyProfiles.toSeq)
    val (opNnz, opEdges, opSteps) = r.pagerankProfile match {
      case Some(pr) =>
        val (exNnz, exEdges, exSteps) = avg(r.exactProfiles.toSeq)
        val (pNnz, pEdges, pSteps) = inputs(pr)
        val share = 1.0 / cfg.seedsPerRound
        (exNnz + famNnz + pNnz * share, exEdges + famEdges + pEdges * share,
         exSteps + famSteps + pSteps * share)
      case None => (famNnz, famEdges, famSteps)
    }

    // Spark: jobs submitted inside the traced loop's queries, and inside
    // each TpaSpark.preprocess of set-up.
    val querySpans = loopSpans.filter(s => s.name == "TpaSpark.online" || s.name == "Cpi.toDense")
    val queryIds = querySpans.map(_.id).toSet
    val qJobs = r.jobs.filter(j => queryIds(j.span)).toSeq
    val queries = math.max(traced.samples.query.length, 1)
    val prepCalls = named(spans, "TpaSpark.preprocess")
    def perPrep(f: JobRecord => Double): Metric = Metric(
      med(prepCalls.map(p => r.jobs.filter(_.span == p.id).map(f).sum)), "count", prepCalls.length,
      "median per TpaSpark.preprocess call")
    val busyBase = querySpans.map(_.durNs / 1e6).sum * Config.Cores
    val self = Tracer.selfByLayer(spans)

    Seq(
      "graph.generate_ms" -> ms(named(spans, "GraphGen.rmatGraph")),
      "graph.csr_build_ms" -> ms(named(spans, "LocalGraph.fromDF")),
      "graph.n" -> Metric(r.g.n, "count", 1),
      "graph.m" -> Metric(r.g.m, "count", 1),
      "cpi.exact_ms" -> ms(rwr),
      "cpi.exact_alloc_bytes" -> alloc(rwr),
      "cpi.exact_supersteps" -> Metric(mean(r.exactProfiles.map(_.supersteps.toDouble).toSeq), "count",
        r.exactProfiles.length, "computed from LocalCpi.run windows"),
    ) ++ (0 until 3).map { i =>
      s"cpi.frontier_nnz.step$i" -> Metric(mean(r.exactProfiles.map(_.nnz(i).toDouble).toSeq), "count",
        r.exactProfiles.length, s"computed: non-zeros of x^($i) from the seed")
    } ++ Seq(
      "cpi.edges_touched" -> Metric(opEdges, "count", r.exactProfiles.length,
        "computed: out-edges of the input frontiers, per loop operation"),
      "cpi.scan_useful_ratio" -> Metric(opNnz / (n * opSteps), "1", r.exactProfiles.length,
        f"computed: input-frontier non-zeros $opNnz%.1f / (n=${n.toInt} x $opSteps%.2f supersteps)"),
      "tpa.family_ms" -> ms(fam),
      "tpa.online_ms" -> ms(onl),
      "tpa.merge_ms" -> Metric(med(onl.map(_.durNs / 1e6)) - med(fam.map(_.durNs / 1e6)), "ms", onl.length,
        "derived: tpa.online_ms - tpa.family_ms"),
      "tpa.online_alloc_bytes" -> alloc(onl),
      "tpa.preprocess_ms" -> ms(prep),
      "tpa.preprocess_alloc_bytes" -> alloc(prep),
      "metrics.l1_ms" -> ms(named(spans, "Metrics.l1")),
      "metrics.spearman_ms" -> ms(named(spans, "Metrics.spearman")),
      "metrics.spearman_alloc_bytes" -> alloc(named(spans, "Metrics.spearman")),
      "spark.jobs_per_query" -> Metric(qJobs.length.toDouble / queries, "jobs/query", queries),
      "spark.stages_per_query" -> Metric(qJobs.map(_.stages).sum.toDouble / queries, "stages/query", queries),
      "spark.tasks_per_query" -> Metric(qJobs.map(_.tasks).sum.toDouble / queries, "tasks/query", queries),
      "spark.shuffle_bytes_per_query" -> Metric(qJobs.map(_.shuffleWriteBytes).sum.toDouble / queries,
        "bytes/query", queries, "shuffle write"),
      "spark.job_ms_p50" -> Metric(med(qJobs.map(_.durMs.toDouble)), "ms", qJobs.length),
      "spark.task_busy_ratio" -> Metric(if (busyBase > 0) qJobs.map(_.taskRunMs).sum / busyBase else 0.0, "1",
        qJobs.length, f"task run time / (query call time x ${Config.Cores} cores = $busyBase%.1f ms)"),
      "spark.collect_ms" -> ms(named(loopSpans, "Cpi.toDense")),
      "spark.preprocess_jobs" -> perPrep(_ => 1.0),
      "spark.preprocess_tasks" -> perPrep(_.tasks.toDouble),
      "spark.preprocess_shuffle_bytes" -> perPrep(_.shuffleWriteBytes.toDouble).copy(unit = "bytes"),
      "spark.normalize_ms" -> ms(named(spans, "GraphGen.normalize")),
      "jvm.gc_ms_per_query" -> Metric(traced.gcMs.toDouble / (queries + untraced.samples.query.length), "ms/query",
        queries, "whole loop"),
      "jvm.gc_count" -> Metric(traced.gcCount.toDouble, "count", 1, "whole loop"),
      "baselines.rppr_ms" -> ms(named(probeSpans, "Rppr.rppr")),
    ) ++ Layers.map { l =>
      s"self_ms.${l.replace('.', '_')}" -> Metric(self.getOrElse(l, 0L) / 1e6, "ms", 1,
        "self time summed over the run's spans")
    } ++ Seq(
      "trace.overhead_query_ms_p50" -> Metric(
        median(traced.samples.query.wall.toSeq) - median(untraced.samples.query.wall.toSeq), "ms",
        traced.samples.query.length, "wall clock, traced minus untraced operations"))
  }

  def json(m: Seq[(String, Metric)], r: Run): String = {
    val body = m.map { case (k, v) => s""""$k": {"value": ${num(v.value)}, "unit": "${v.unit}"}""" }
    s"""{"correct": ${r.gate.failed == 0}, "attempted": ${r.gate.attempted}, "failed": ${r.gate.failed}, """ +
      s""""metrics": {${body.mkString(", ")}}}"""
  }

  private def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric is not a finite number: $d")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
  }

  private def table(rows: Seq[(String, Metric)]): Unit =
    for ((k, m) <- rows)
      println(f"  $k%-34s ${m.value}%16.6f ${m.unit}%-12s n=${m.samples}%-6d ${m.note}")

  private def header(r: Run, seed: Long, seconds: Double): Unit = {
    val rt = Runtime.getRuntime
    println(s"== perfbench ${r.cfg.workload} seed=$seed seconds=$seconds trace=${r.traced}")
    println(s"  nproc=${rt.availableProcessors} jvm=${sys.props("java.vm.name")} ${sys.props("java.version")} " +
      s"heap_max=${rt.maxMemory >> 20}MiB")
    println(s"  git=${sys.props.getOrElse("perfbench.gitSha", "unknown")} " +
      s"sources=${sys.props.getOrElse("perfbench.sourceSha", "unknown")}")
    val c = r.cfg
    println(s"  graph=${c.graph.name} n=${r.g.n} m=${r.g.m} c=${c.c} eps=${c.eps} S=${c.s} T=${c.t} " +
      s"pool=${c.pool} seedsPerRound=${c.seedsPerRound} setupReps=${Config.SetupReps} master=local[${Config.Cores}]")
    println("  spark settings:")
    for ((k, v) <- r.sparkSettings) println(s"    $k=$v")
  }

  def report(r: Run, seed: Long, seconds: Double): Seq[(String, Metric)] = {
    header(r, seed, seconds)
    val main = r.base ++ r.loops.head.samples
    val e2e = endToEnd(main)
    println("end-to-end, CPU time (untraced operations):")
    table(e2e)
    table(timings(main, _.cpu.toSeq, "cpu").collect {
      case ("queries_per_s", m) => "queries_per_s" -> m.copy(note = m.note + " (not gated)")
    })
    println("end-to-end, wall clock (untraced operations):")
    table(timings(main, _.wall.toSeq, "wall"))
    for ((clock, q) <- Seq("wall" -> main.query.wall.toSeq, "cpu" -> main.query.cpu.toSeq)) {
      for (p <- Stats.tailPercentiles(q.length))
        table(Seq(s"query_ms_${Stats.label(p)}" -> Metric(Stats.percentile(q, p), "ms", q.length,
          s"$clock, ${Stats.beyond(q.length, p)} samples beyond")))
      if (Stats.tailPercentiles(q.length).isEmpty)
        println(s"  query tail ($clock): no percentile above p50 has ten samples beyond it (n=${q.length})")
    }
    if (main.query.length <= 32)
      println(main.query.wall.zip(main.query.cpu).map { case (w, c) => f"$w%.1f/$c%.1f" }
        .mkString("  query samples, wall/cpu ms: ", " ", ""))
    val rate = r.gate.failed.toDouble / math.max(r.gate.attempted, 1)
    table(Seq("error_rate" -> Metric(rate, "1", r.gate.attempted.toInt, s"${r.gate.failed} failed")))
    if (!r.traced) e2e
    else {
      val layers = perLayer(r)
      println("per-layer (traced run):")
      table(layers)
      println("tracing overhead, traced minus untraced operations of the same loop:")
      for ((clock, pick) <- Seq[(String, Timings => Seq[Double])](("wall", _.wall.toSeq), ("cpu", _.cpu.toSeq))) {
        val plain = timings(main, pick, clock).toMap
        val spanned = timings(r.base ++ r.loops(1).samples, pick, clock).toMap
        for (k <- Seq("query_ms_p50", "queries_per_s") ++
               (if (r.cfg.workload == "index-truth") Seq("truth_seeds_per_s", "preprocess_ms") else Nil))
          println(f"  $k%-34s ${spanned(k).value - plain(k).value}%+16.6f ${plain(k).unit} ($clock)")
      }
      layers
    }
  }

  private def arg(args: Array[String], name: String): String = {
    val i = args.indexOf(name)
    require(i >= 0 && i + 1 < args.length, s"missing $name")
    args(i + 1)
  }

  def main(args: Array[String]): Unit = {
    val code =
      if (args.contains("--self-test")) SelfTest.run()
      else {
        val workload = arg(args, "--workload")
        val seed = arg(args, "--seed").toLong
        val seconds = arg(args, "--seconds").toDouble
        val trace = arg(args, "--trace") match {
          case "0" => false
          case "1" => true
          case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
        }
        val r = new Run(Config(workload), seed, seconds, trace,
          sys.props.getOrElse("perfbench.work", "."))
        r.run()
        val metrics = report(r, seed, seconds)
        for (m <- r.gate.messages) println(s"FAILED: $m")
        println(json(metrics, r))
        if (r.gate.failed == 0) 0 else 1
      }
    sys.exit(code)
  }
}
