package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One Spark job as the listener saw it. `span` is the benchmark span
  * that was open on the calling thread when the job was submitted.
  */
final class JobRecord(val id: Int, val span: Int, val startMs: Long) {
  var endMs: Long = startMs
  var stages = 0
  var tasks = 0
  var taskRunMs = 0L
  var shuffleWriteBytes = 0L
  def durMs: Long = endMs - startMs
}

/** Listener the benchmark registers in traced runs. It counts jobs,
  * completed stages, tasks, task run time and shuffle-write bytes, each
  * job tagged with the span id the benchmark set as a local property.
  */
final class SparkJobs extends SparkListener {
  private val jobs = mutable.LinkedHashMap.empty[Int, JobRecord]
  private val stageJob = mutable.Map.empty[Int, JobRecord]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(SparkJobs.SpanKey)))
      .map(_.toInt).getOrElse(-1)
    val j = new JobRecord(e.jobId, span, e.time)
    jobs(e.jobId) = j
    e.stageIds.foreach(s => stageJob(s) = j)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageJob.get(e.stageInfo.stageId).foreach(_.stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageJob.get(e.stageId).foreach { j =>
      j.tasks += 1
      val m = e.taskMetrics
      if (m != null) {
        j.taskRunMs += m.executorRunTime
        j.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** Jobs seen so far, after every queued event has been delivered. */
  def drained(sc: SparkContext): Seq[JobRecord] = {
    org.apache.spark.PerfbenchBus.drain(sc)
    synchronized(jobs.values.toList)
  }
}

object SparkJobs {
  val SpanKey = "perfbench.span"

  /** Run `body` as a span whose Spark jobs are tagged with its id. */
  def traced[A](tracer: Tracer, sc: SparkContext, layer: String, name: String)(body: => A): A =
    tracer.span(layer, name) {
      if (tracer.enabled) sc.setLocalProperty(SpanKey, tracer.current.toString)
      try body
      finally if (tracer.enabled) sc.setLocalProperty(SpanKey, null)
    }

  /** Add every tagged job as a child span of the span that submitted it. */
  def attach(tracer: Tracer, jobs: Seq[JobRecord]): Unit =
    for (j <- jobs if j.span >= 0)
      tracer.child(j.span, "spark.job", s"job ${j.id}",
        j.startMs * 1000000L + tracer.epochToNanoNs, j.endMs * 1000000L + tracer.epochToNanoNs)
}
