package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.Rppr
import repro.core.{Cpi, LocalCpi, Tpa, TpaSpark}
import repro.graph.{DatasetSpec, Datasets, GraphGen, LocalGraph}
import repro.metrics.Metrics
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Fixed inputs of one workload; nothing is read from the environment. */
final case class Config(
    workload: String,
    graph: DatasetSpec,
    c: Double,
    eps: Double,
    s: Int,
    t: Int,
    /** Seeds with a precomputed exact answer that the query loop cycles through. */
    pool: Int,
    /** Truth seeds evaluated after each `Tpa.preprocess` (index-truth). */
    seedsPerRound: Int,
    /** Seeds whose CPI frontiers are profiled in a traced run. */
    profileSeeds: Int)

object Config {
  val Workloads: Seq[String] = Seq("online-sparse", "index-truth", "spark-tpa")
  val C = 0.15
  val RpprTheta = 1e-4
  /** Spark and local TPA built with the same ε agree to this L1 distance. */
  val SparkTolerance = 1e-9
  /** Lemma 3 holds per superstep to this absolute error. */
  val NormTolerance = 1e-12
  /** Fixed here rather than read from SPARK_SHUFFLE_PARTITIONS; see README. */
  val ShufflePartitions = 8
  val Cores: Int = math.min(2, Runtime.getRuntime.availableProcessors)
  /** Set-ups per run; see README for why two. */
  val SetupReps = 2

  def apply(workload: String): Config = workload match {
    case "online-sparse" =>
      Config(workload, Datasets.friendster, C, 1e-9, s = 3, t = 20, pool = 8, seedsPerRound = 0,
        profileSeeds = 2)
    case "index-truth" =>
      Config(workload, Datasets.friendster, C, 1e-9, s = 3, t = 20, pool = 0, seedsPerRound = 4,
        profileSeeds = 2)
    case "spark-tpa" =>
      Config(workload, Datasets.slashdot, C, 1e-3, s = 4, t = 15, pool = 256, seedsPerRound = 0,
        profileSeeds = 4)
    case other =>
      throw new IllegalArgumentException(
        s"unknown workload '$other' (expected one of ${Workloads.mkString(", ")})")
  }

  /** The same workload on a 128-node graph, for the smoke run. */
  def tiny(workload: String): Config = {
    val base = apply(workload)
    base.copy(graph = DatasetSpec("tiny-s", 7, 600L, 3, 5, 0L, 0L, 17L), s = 3, t = 5,
      eps = if (workload == "spark-tpa") 1e-2 else 1e-6,
      pool = math.min(base.pool, 4), profileSeeds = 2)
  }
}

/** Durations of one kind of call in units of `unitNs`, on the wall clock
  * and on the CPU clock `cpuNs`.
  */
final class Timings(unitNs: Double, cpuNs: () => Long) {
  val wall: ArrayBuffer[Double] = ArrayBuffer.empty
  val cpu: ArrayBuffer[Double] = ArrayBuffer.empty
  def time[A](body: => A): A = {
    val w0 = System.nanoTime()
    val c0 = cpuNs()
    val r = body
    val c1 = cpuNs()
    wall += (System.nanoTime() - w0) / unitNs
    cpu += (c1 - c0) / unitNs
    r
  }
  def length: Int = wall.length
  def ++=(o: Timings): this.type = { wall ++= o.wall; cpu ++= o.cpu; this }
}

/** Samples of the end-to-end quantities: set-up in s, calls in ms.
  * `spark` says whether preprocessing, queries and truth seeds run on
  * Spark. Set-up is charged the CPU of the whole process, a Spark call
  * that of the benchmark and task threads, and a local call that of the
  * benchmark thread it runs on.
  */
final class Samples(spark: Boolean) {
  private val callCpu: () => Long = if (spark) () => Jvm.sparkCpuNs() else () => Jvm.threadCpuNs()
  val setup = new Timings(1e9, () => Jvm.processCpuNs())
  val preprocess = new Timings(1e6, callCpu)
  val query = new Timings(1e6, callCpu)
  val truth = new Timings(1e6, callCpu)
  val l1: ArrayBuffer[Double] = ArrayBuffer.empty
  val spearman: ArrayBuffer[Double] = ArrayBuffer.empty

  def ++(o: Samples): Samples = {
    val r = new Samples(spark)
    for ((dst, a, b) <- Seq((r.setup, setup, o.setup), (r.preprocess, preprocess, o.preprocess),
                            (r.query, query, o.query), (r.truth, truth, o.truth)))
      dst ++= a ++= b
    r.l1 ++= l1 ++= o.l1
    r.spearman ++= spearman ++= o.spearman
    r
  }
}

/** Operations of one mode of the closed loop: their samples, the GC
  * deltas over the whole loop, and the range of span indices it closed.
  */
final case class Loop(traced: Boolean, samples: Samples, gcCount: Long, gcMs: Long,
                      spanFrom: Int, spanTo: Int)

/** CPI work of one call, computed from public `LocalCpi.run` windows:
  * non-zeros and out-edges of each iterate x^(0), x^(1), ….
  */
final case class Profile(nnz: IndexedSeq[Int], edges: IndexedSeq[Long]) {
  /** Supersteps CPI runs to convergence (one per iterate after x^(0)). */
  def supersteps: Int = nnz.length - 1
}

/** One run of one workload: set-up repeated `SetupReps` times, then a
  * closed loop with one client for `seconds` (2 × `seconds` in a traced
  * run), then, when traced, the per-layer probes.
  */
final class Run(val cfg: Config, seed: Long, seconds: Double, val traced: Boolean,
                workDir: String) {
  val gate = new Gate
  val tracer = new Tracer(traced)
  val base = newSamples()
  val loops: ArrayBuffer[Loop] = ArrayBuffer.empty
  val jobs: ArrayBuffer[JobRecord] = ArrayBuffer.empty
  val sparkSettings: mutable.LinkedHashMap[String, String] = mutable.LinkedHashMap.empty
  var g: LocalGraph = _
  /** Seeds of the loop whose frontiers and layer splits are probed. */
  val probeSeeds: ArrayBuffer[Int] = ArrayBuffer.empty
  /** Span index where the post-loop probes start. */
  var probeSpanFrom = 0
  val familyProfiles: ArrayBuffer[Profile] = ArrayBuffer.empty
  val exactProfiles: ArrayBuffer[Profile] = ArrayBuffer.empty
  var pagerankProfile: Option[Profile] = None

  private val rng = new scala.util.Random(seed)
  private val n = cfg.graph.n
  private val bound = Tpa.accuracyBound(cfg.c, cfg.s)
  private var spark: SparkSession = _
  private var listener: SparkJobs = _
  private var localModel: Tpa.Model = _

  private def newSamples() = new Samples(cfg.workload == "spark-tpa")

  def run(): Unit = {
    cfg.workload match {
      case "online-sparse" => onlineSparse()
      case "index-truth"   => indexTruth()
      case "spark-tpa"     => sparkTpa()
    }
    if (traced) probe()
    stopSession()
    SparkJobs.attach(tracer, jobs.toSeq)
  }

  // ---------------------------------------------------------------- set-up

  private def startSession(): Unit = {
    spark = tracer.span("spark", "SparkSession.getOrCreate") {
      SparkSession.builder
        .master(s"local[${Config.Cores}]")
        .appName(s"perfbench-${cfg.workload}")
        .config("spark.sql.shuffle.partitions", Config.ShufflePartitions.toString)
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", s"$workDir/spark-local")
        .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
        .getOrCreate()
    }
    if (traced) {
      listener = new SparkJobs
      spark.sparkContext.addSparkListener(listener)
    }
    sparkSettings.clear()
    sparkSettings ++= spark.sparkContext.getConf.getAll.sortBy(_._1)
    for (k <- Seq("spark.sql.shuffle.partitions", "spark.sql.autoBroadcastJoinThreshold",
                  "spark.sql.adaptive.enabled"))
      sparkSettings(k) = spark.conf.get(k)
    sparkSettings("spark.version") = spark.version
  }

  private def stopSession(): Unit = if (spark != null) {
    if (listener != null) jobs ++= listener.drained(spark.sparkContext)
    listener = null
    spark.stop()
    spark = null
  }

  private def generate(): DataFrame = tracer.span("graph", "GraphGen.rmatGraph") {
    val d = GraphGen.rmatGraph(spark, cfg.graph.scale, cfg.graph.mTarget, cfg.graph.seed).persist()
    d.count()
    d
  }

  private def csr(edges: DataFrame): LocalGraph =
    tracer.span("graph", "LocalGraph.fromDF")(LocalGraph.fromDF(edges, n))

  /** Repeat set-up; `body` is timed and returns its state. */
  private def setupReps[A](body: => A)(after: A => Unit): A = {
    var state: Option[A] = None
    for (_ <- 0 until Config.SetupReps) {
      stopSession()
      val st = base.setup.time(tracer.span("bench", "setup")(body))
      after(st)
      state = Some(st)
    }
    state.get
  }

  private def preprocessLocal(into: Samples): Tpa.Model =
    into.preprocess.time(tracer.span("tpa", "Tpa.preprocess")(Tpa.preprocess(g, cfg.c, cfg.eps, cfg.t)))

  // ---------------------------------------------------------------- checks

  private def checkGraph(): Unit = gate.op("graph") {
    gate.check(g.n == n, s"graph has n=${g.n}, expected $n")
    gate.check(g.m > 0, "graph has no edges")
    gate.check((0 until g.n).forall(g.outDeg(_) > 0), "graph has a dangling node")
  }

  private def checkStranger(stranger: Array[Double], what: String): Unit = {
    val expect = math.pow(1 - cfg.c, cfg.t)
    val got = Check.sum(stranger)
    gate.check(stranger.length == n, s"$what: stranger has length ${stranger.length}")
    gate.check(got <= expect + Config.NormTolerance && got >= expect - Check.tailSlack(cfg.c, cfg.eps),
      s"$what: ‖stranger‖₁ = $got, expected (1-c)^T = $expect less the ε tail")
  }

  private def checkExact(seed: Int, exact: Array[Double]): Unit = {
    val got = Check.sum(exact)
    gate.check(got <= 1 + Config.NormTolerance && got >= 1 - Check.tailSlack(cfg.c, cfg.eps),
      s"seed $seed: ‖exact RWR‖₁ = $got, expected 1 less the ε tail")
  }

  private def checkAnswer(seed: Int, ans: Array[Double], exact: Array[Double]): Unit = {
    gate.check(ans.length == n, s"seed $seed: answer has length ${ans.length}")
    val e = Check.l1(ans, exact)
    gate.check(e <= bound, s"seed $seed: L1 vs exact $e exceeds 2(1-c)^S = $bound")
  }

  /** One evaluated seed: exact RWR, TPA answer, L1 and Spearman, timed
    * together as a truth sample. With `loop` the `Tpa.online` part is also
    * a query sample; with `quality` the L1 and Spearman are samples too.
    * Returns (exact, answer) if every check held.
    */
  private def truth(seed: Int, model: Tpa.Model, into: Samples, loop: Boolean,
                    quality: Boolean): Option[(Array[Double], Array[Double])] = {
    var out: Option[(Array[Double], Array[Double])] = None
    gate.op(s"truth seed $seed") {
      tracer.span("bench", "truth") {
        val (ex, ans, l1, sp) = into.truth.time {
          val ex = tracer.span("cpi", "LocalCpi.rwr")(LocalCpi.rwr(g, seed, cfg.c, cfg.eps))
          def online() = tracer.span("tpa", "Tpa.online")(Tpa.online(g, model, cfg.s, seed, cfg.eps))
          val ans = if (loop) into.query.time(online()) else online()
          val l1 = tracer.span("metrics", "Metrics.l1")(Metrics.l1(ans, ex))
          val sp = tracer.span("metrics", "Metrics.spearman")(Metrics.spearman(ans, ex))
          (ex, ans, l1, sp)
        }
        if (quality) { into.l1 += l1; into.spearman += sp }
        checkExact(seed, ex)
        checkAnswer(seed, ans, ex)
        gate.check(math.abs(l1 - Check.l1(ans, ex)) <= 1e-9, s"seed $seed: Metrics.l1 = $l1 disagrees")
        gate.check(sp >= -1 && sp <= 1, s"seed $seed: Spearman $sp outside [-1, 1]")
        out = Some((ex, ans))
      }
    }
    out
  }

  // ------------------------------------------------------------ the loop

  /** The closed loop, after one unrecorded operation. A traced run loops
    * twice as long and alternates untraced and traced operations, so both
    * see the same warm-up; each mode counts its own operations from 0 and
    * gets at least one.
    */
  private def measure(step: (Samples, Int) => Unit): Unit = {
    step(newSamples(), 0) // one unrecorded operation, so the loop starts warm
    val plain = newSamples()
    val spanned = newSamples()
    val from = tracer.spans.length
    val (c0, ms0) = Jvm.gc()
    val modes = if (traced) 2 else 1
    val end = System.nanoTime() + (modes * seconds * 1e9).toLong
    var i = 0
    while (System.nanoTime() < end || i < modes) {
      tracer.enabled = traced && i % 2 == 1
      if (tracer.enabled) step(spanned, i / 2) else step(plain, if (traced) i / 2 else i)
      i += 1
    }
    tracer.enabled = traced
    val (c1, ms1) = Jvm.gc()
    loops += Loop(traced = false, plain, c1 - c0, ms1 - ms0, from, from)
    if (traced) loops += Loop(traced = true, spanned, c1 - c0, ms1 - ms0, from, tracer.spans.length)
  }

  // ----------------------------------------------------------- workloads

  /** Stream of `Tpa.online` queries over a seed pool; the stranger vector
    * is built in set-up.
    */
  private def onlineSparse(): Unit = {
    val model = setupReps {
      startSession()
      g = csr(generate())
      preprocessLocal(base)
    } { m => gate.op("Tpa.preprocess")(checkStranger(m.stranger, "Tpa.preprocess")) }
    localModel = model
    checkGraph()
    val pool = Array.fill(cfg.pool)(rng.nextInt(n))
    val exact = mutable.Map.empty[Int, Array[Double]]
    for (s <- pool.distinct) truth(s, model, base, loop = false, quality = true).foreach(r => exact(s) = r._1)
    probeSeeds ++= pool.distinct.take(cfg.profileSeeds)
    measure { (samples, i) =>
      val seed = pool(i % pool.length)
      gate.op(s"Tpa.online seed $seed") {
        tracer.span("bench", "query") {
          val ans = samples.query.time(tracer.span("tpa", "Tpa.online")(Tpa.online(g, model, cfg.s, seed, cfg.eps)))
          checkAnswer(seed, ans, exact(seed))
        }
      }
    }
  }

  /** Rounds of one `Tpa.preprocess` followed by `seedsPerRound` truth
    * evaluations of freshly drawn seeds.
    */
  private def indexTruth(): Unit = {
    setupReps {
      startSession()
      g = csr(generate())
    } { _ => () }
    checkGraph()
    measure { (samples, _) =>
      var model: Tpa.Model = null
      gate.op("Tpa.preprocess") {
        model = preprocessLocal(samples)
        checkStranger(model.stranger, "Tpa.preprocess")
      }
      for (_ <- 0 until cfg.seedsPerRound) {
        val seed = rng.nextInt(n)
        if (probeSeeds.length < cfg.profileSeeds) probeSeeds += seed
        truth(seed, model, samples, loop = true, quality = true)
      }
      if (model != null) localModel = model
    }
  }

  /** `TpaSpark.online` + `Cpi.toDense` queries over a seed pool; the
    * DataFrame stranger vector is built in set-up.
    */
  private def sparkTpa(): Unit = {
    var edges: DataFrame = null
    val (norm, stranger) = setupReps {
      startSession()
      edges = generate()
      val norm = tracer.span("graph", "GraphGen.normalize") {
        val d = GraphGen.normalize(edges).persist(); d.count(); d
      }
      val stranger = base.preprocess.time {
        SparkJobs.traced(tracer, spark.sparkContext, "spark", "TpaSpark.preprocess") {
          val d = TpaSpark.preprocess(spark, norm, n.toLong, cfg.c, cfg.eps, cfg.t).persist(); d.count(); d
        }
      }
      (norm, stranger)
    } { case (_, stranger) =>
      gate.op("TpaSpark.preprocess")(checkStranger(Cpi.toDense(stranger, n), "TpaSpark.preprocess"))
    }
    g = csr(edges)
    checkGraph()
    val local = tracer.span("tpa", "Tpa.preprocess")(Tpa.preprocess(g, cfg.c, cfg.eps, cfg.t))
    localModel = local
    gate.op("Tpa.preprocess") {
      checkStranger(local.stranger, "Tpa.preprocess")
      val d = Cpi.toDense(stranger, n)
      gate.check(Check.l1(d, local.stranger) <= Config.SparkTolerance,
        s"Spark and local stranger vectors differ by ${Check.l1(d, local.stranger)}")
    }
    val pool = Array.fill(cfg.pool)(rng.nextInt(n))
    // The local answers of the pool: the quality metrics, and the
    // reference every Spark answer must match. Their timings are not
    // recorded: a local evaluation takes about 1 ms here, and its cost
    // switched between about 0.9 and 1.45 ms between JVMs and between GC
    // cycles of one JVM (see README).
    val answers = mutable.Map.empty[Int, (Array[Double], Array[Double])]
    val pooled = newSamples()
    for (s <- pool.distinct) truth(s, local, pooled, loop = false, quality = true).foreach(r => answers(s) = r)
    base.l1 ++= pooled.l1
    base.spearman ++= pooled.spearman
    probeSeeds ++= pool.distinct.take(cfg.profileSeeds)
    val sc = spark.sparkContext
    // Each query is also a truth seed, evaluated on the Spark answer.
    measure { (samples, i) =>
      val seed = pool(i % pool.length)
      gate.op(s"TpaSpark.online seed $seed") {
        tracer.span("bench", "query") {
          val (ex, ans, l1, sp) = samples.truth.time {
            val ex = tracer.span("cpi", "LocalCpi.rwr")(LocalCpi.rwr(g, seed, cfg.c, cfg.eps))
            val ans = samples.query.time {
              val df = SparkJobs.traced(tracer, sc, "spark", "TpaSpark.online") {
                TpaSpark.online(spark, norm, stranger, cfg.c, cfg.s, cfg.t, seed.toLong, cfg.eps)
              }
              SparkJobs.traced(tracer, sc, "spark", "Cpi.toDense")(Cpi.toDense(df, n))
            }
            val l1 = tracer.span("metrics", "Metrics.l1")(Metrics.l1(ans, ex))
            val sp = tracer.span("metrics", "Metrics.spearman")(Metrics.spearman(ans, ex))
            (ex, ans, l1, sp)
          }
          val gap = Check.l1(ans, answers(seed)._2)
          gate.check(gap <= Config.SparkTolerance, s"seed $seed: Spark answer is $gap from local Tpa.online")
          checkExact(seed, ex)
          checkAnswer(seed, ans, ex)
          gate.check(math.abs(l1 - Check.l1(ans, ex)) <= 1e-9, s"seed $seed: Metrics.l1 = $l1 disagrees")
          gate.check(sp >= -1 && sp <= 1, s"seed $seed: Spearman $sp outside [-1, 1]")
        }
      }
    }
  }

  // --------------------------------------------------- per-layer probes

  /** After the traced loop: split `Tpa.online` into family and merge,
    * time RPPR on the same seeds, check Lemma 3 per family superstep, and
    * profile CPI frontiers.
    */
  private def probe(): Unit = {
    probeSpanFrom = tracer.spans.length
    for (_ <- 0 until 3; seed <- probeSeeds) {
      tracer.span("tpa", "Tpa.family")(Tpa.family(g, cfg.c, cfg.s, seed, cfg.eps))
      tracer.span("tpa", "Tpa.online")(Tpa.online(g, localModel, cfg.s, seed, cfg.eps))
      tracer.span("baselines", "Rppr.rppr")(Rppr.rppr(g, seed, cfg.c, Config.RpprTheta))
    }
    for (seed <- probeSeeds; i <- 0 until cfg.s) gate.op(s"Lemma 3 seed $seed step $i") {
      val x = LocalCpi.run(g, LocalCpi.unitSeed(n, seed), cfg.c, cfg.eps, i, i)
      val want = cfg.c * math.pow(1 - cfg.c, i)
      val got = Check.sum(x)
      gate.check(math.abs(got - want) <= Config.NormTolerance,
        s"seed $seed: ‖x^($i)‖₁ = $got, Lemma 3 gives $want")
    }
    for (seed <- probeSeeds) {
      val p = profile(LocalCpi.unitSeed(n, seed))
      exactProfiles += p
      familyProfiles += Profile(p.nnz.take(cfg.s), p.edges.take(cfg.s))
    }
    if (cfg.workload == "index-truth") pagerankProfile = Some(profile(LocalCpi.uniformSeed(n)))
  }

  /** Iterates of CPI from `q` to convergence, one `LocalCpi.run` window
    * [1, 1] per superstep from the previous iterate (rescaled by 1/c,
    * since the window starts from c·q).
    */
  private def profile(q: Array[Double]): Profile = {
    val nnz = ArrayBuffer.empty[Int]
    val edges = ArrayBuffer.empty[Long]
    var x = LocalCpi.run(g, q, cfg.c, cfg.eps, 0, 0)
    var done = false
    while (!done) {
      var k = 0; var e = 0L; var u = 0
      while (u < n) { if (x(u) != 0.0) { k += 1; e += g.outDeg(u) }; u += 1 }
      nnz += k; edges += e
      if (Check.sum(x) < cfg.eps) done = true
      else x = LocalCpi.run(g, x.map(_ / cfg.c), cfg.c, cfg.eps, 1, 1)
    }
    Profile(nnz.toIndexedSeq, edges.toIndexedSeq)
  }
}
