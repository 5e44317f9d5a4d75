package perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** Order statistics used by every workload. Percentiles are nearest-rank. */
object Stats {

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0 else {
      val s = xs.sorted
      val m = s.length / 2
      if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
    }

  /** Index of the nearest-rank percentile `p` (0 < p <= 100) in `n` sorted samples. */
  private def rank(n: Int, p: Double): Int =
    math.min(n - 1, math.max(0, math.ceil(p / 100.0 * n).toInt - 1))

  /** Percentile `p` of the first `n` entries of `xs`, which this call sorts in place. */
  def percentileInPlace(xs: Array[Long], n: Int, p: Double): Double =
    if (n <= 0) 0.0 else {
      java.util.Arrays.sort(xs, 0, n)
      xs(rank(n, p)).toDouble
    }

  def percentile(xs: Seq[Double], p: Double): Double =
    if (xs.isEmpty) 0.0 else xs.sorted.apply(rank(xs.length, p))

  /** The highest whole percentile that leaves at least ten samples above it,
    * with that percentile; `(0, 0)` when there are too few samples.
    */
  def tail(xs: Seq[Double]): (Double, Int) = {
    val n = xs.length
    val ps = (99 to 50 by -1).filter(p => n - math.ceil(p / 100.0 * n).toInt >= 10)
    ps.headOption.fold((0.0, 0))(p => (percentile(xs, p.toDouble), p))
  }
}

/** Growable primitive buffer, so recording samples on the hot path does not box. */
final class LongBuf(initial: Int = 1024) {
  private var a = new Array[Long](initial)
  var size = 0
  def add(x: Long): Unit = {
    if (size == a.length) a = java.util.Arrays.copyOf(a, a.length * 2)
    a(size) = x; size += 1
  }
  def clear(): Unit = size = 0
  def addAll(o: LongBuf): Unit = {
    if (size + o.size > a.length) a = java.util.Arrays.copyOf(a, math.max(a.length * 2, size + o.size))
    System.arraycopy(o.a, 0, a, size, o.size); size += o.size
  }
  /** Percentile of the samples; sorts them in place. */
  def percentile(p: Double): Double = Stats.percentileInPlace(a, size, p)
}

/** Process-wide JVM counters: GC time and bytes allocated. */
object Jvm {
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def gcMillis: Long = gcs.map(_.getCollectionTime).filter(_ >= 0).sum

  /** Bytes allocated by the calling thread so far. */
  def threadAllocated: Long = threads.getCurrentThreadAllocatedBytes

  /** Bytes allocated so far by all live threads (Spark tasks run on pooled,
    * long-lived threads, so this covers the streaming workload's work).
    */
  def allAllocated: Long = threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum

  def version: String = System.getProperty("java.vm.version")
  def flags: Seq[String] = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
}

/** Minimal JSON writer for the result and run-record lines. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")
}
