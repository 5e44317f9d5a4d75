package perfbench

import scala.collection.mutable

/** Everything one run prints: metrics by name with their unit, the output
  * checks, and the counts the result line carries.
  *
  * `endToEnd` metrics are measured with tracing off and `perLayer` metrics
  * come from the traced run; the result line carries the set the run's mode
  * asks for, and every other figure is printed as a note.
  */
final class Report(val workload: String, val traced: Boolean) {
  private val endToEnd = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val perLayer = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val notes = mutable.ArrayBuffer.empty[String]
  private val record = mutable.LinkedHashMap.empty[String, String]
  var attempted = 0L
  var failed = 0L
  private var checks = 0
  private var checksFailed = 0

  def e2e(name: String, value: Double, unit: String): Unit = endToEnd(name) = (value, unit)
  def layer(name: String, value: Double, unit: String): Unit = perLayer(name) = (value, unit)
  def note(line: String): Unit = notes += line
  def rec(key: String, jsonValue: String): Unit = record(key) = jsonValue

  /** JVM counters go both to the per-layer metrics and to the run record. */
  def jvm(gcMs: Double, allocBytesPerEvent: Double): Unit = {
    layer("jvm.gc_ms", gcMs, "ms")
    layer("jvm.alloc_bytes_per_event", allocBytesPerEvent, "B")
    rec("jvm.gc_ms", Json.num(gcMs))
    rec("jvm.alloc_bytes_per_event", Json.num(allocBytesPerEvent))
  }

  /** An output check; each mismatch counts as one failure. */
  def check(name: String, mismatches: Long, detail: String): Unit = {
    checks += 1
    if (mismatches != 0) { checksFailed += 1; failed += mismatches }
    note(s"check $name: ${if (mismatches == 0) "ok" else s"FAILED ($mismatches mismatches)"} - $detail")
  }

  def print(): Unit = {
    val out = Console.out
    out.println(s"== $workload (${if (traced) "traced" else "untraced"} run)")
    notes.foreach(l => out.println(s"  $l"))
    val shown = if (traced) perLayer else endToEnd
    val other = if (traced) endToEnd else perLayer
    for ((k, (v, u)) <- shown) out.println(f"  $k%-28s ${Json.num(v)}%s $u")
    for ((k, (v, u)) <- other) out.println(f"  ($k%-26s ${Json.num(v)}%s $u)")
    val errorShare = failed.toDouble / math.max(1L, attempted)
    out.println(f"  error_share = ${Json.num(errorShare)} ($failed failed of $attempted attempted; $checks checks)")
    val metrics = shown.map { case (k, (v, u)) =>
      k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
    }.toSeq
    record("checks_run") = checks.toString
    record("error_share") = Json.num(errorShare)
    out.println("RECORD " + Json.obj(record.toSeq))
    out.println("RESULT " + Json.obj(Seq(
      "correct"   -> (checks > 0 && checksFailed == 0 && failed == 0).toString,
      "attempted" -> math.max(1L, attempted).toString,
      "failed"    -> failed.toString,
      "metrics"   -> Json.obj(metrics),
    )))
    out.flush()
  }
}
