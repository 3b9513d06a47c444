package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One timed call: `parent` is the id of the enclosing span (-1 for a
  * root). `allocBytes` is what the benchmark thread allocated inside the
  * span, children included; -1 when not measured (Spark job spans).
  */
final case class Span(id: Int, parent: Int, layer: String, name: String,
                      startNs: Long, endNs: Long, allocBytes: Long) {
  def durNs: Long = endNs - startNs
}

/** JVM counters read from the benchmark thread. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private val os =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  // The kernel accounts paravirtual steal time apart from CPU time, so
  // neither clock below grows while the host runs someone else's work on
  // this machine's CPUs; the wall clock does.

  /** CPU time of every thread of the process, dead ones included (10 ms ticks). */
  def processCpuNs(): Long = os.getProcessCpuTime

  /** CPU time of the calling thread (ns resolution). */
  def threadCpuNs(): Long = threads.getCurrentThreadCpuTime

  /** CPU time of the calling thread plus Spark's local-mode task threads:
    * the driver-side and executor-side work of a Spark call, without the
    * JIT and GC threads.
    */
  def sparkCpuNs(): Long = {
    val all = new Array[Thread](Thread.activeCount() * 2 + 16)
    val k = rootGroup.enumerate(all, true)
    var sum = threads.getCurrentThreadCpuTime
    var i = 0
    while (i < k) {
      val t = all(i)
      if ((t ne Thread.currentThread) && t.getName.startsWith("Executor task launch worker")) {
        val ns = threads.getThreadCpuTime(t.getId)
        if (ns > 0) sum += ns
      }
      i += 1
    }
    sum
  }

  private lazy val rootGroup: ThreadGroup = {
    var g = Thread.currentThread.getThreadGroup
    while (g.getParent != null) g = g.getParent
    g
  }

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** (collections, collection ms) summed over every collector. */
  def gc(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionCount).sum, beans.map(_.getCollectionTime).sum)
  }
}

/** In-memory span recorder for the benchmark thread. Disabled, [[span]]
  * only runs its body, so untraced runs pay one branch per call.
  */
final class Tracer(var enabled: Boolean) {
  val spans: ArrayBuffer[Span] = ArrayBuffer.empty
  private var stack: List[Int] = Nil
  private var nextId = 0

  /** Offset from wall-clock ms (Spark listener event times) to nanoTime. */
  val epochToNanoNs: Long = System.nanoTime() - System.currentTimeMillis() * 1000000L

  /** Id of the innermost open span, or -1. */
  def current: Int = stack.headOption.getOrElse(-1)

  def span[A](layer: String, name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = current
      stack = id :: stack
      val a0 = Jvm.allocatedBytes()
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        val a1 = Jvm.allocatedBytes()
        stack = stack.tail
        spans += Span(id, parent, layer, name, t0, t1, a1 - a0)
      }
    }

  /** Record a span observed elsewhere (a Spark job) under `parent`. */
  def child(parent: Int, layer: String, name: String, startNs: Long, endNs: Long): Unit = {
    spans += Span(nextId, parent, layer, name, startNs, endNs, -1L)
    nextId += 1
  }
}

object Tracer {

  /** Self time of every span: its duration minus the part of its
    * interval that its children cover (children clipped to the parent,
    * overlaps between children counted once).
    */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val cs = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var end = Long.MinValue
      for ((a, b) <- cs) {
        val from = math.max(a, end)
        if (b > from) covered += b - from
        end = math.max(end, b)
      }
      s.id -> (s.durNs - covered)
    }.toMap
  }

  /** Total self time per layer, in ns. */
  def selfByLayer(spans: Seq[Span]): Map[String, Long] = {
    val self = selfNs(spans)
    spans.groupBy(_.layer).map { case (l, ss) => l -> ss.map(s => self(s.id)).sum }
  }
}
