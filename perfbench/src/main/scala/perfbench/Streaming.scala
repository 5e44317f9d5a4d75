package perfbench

import org.apache.spark.sql.{SQLContext, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{StreamingQuery, StreamingQueryProgress}
import repro.core.Ev
import repro.core.ceql.CeqlParser
import repro.gen.StreamGen
import repro.spark.{CoreStreaming, MatchRow}
import scala.collection.mutable
import scala.util.control.NonFatal

/** `stream_q6`: Q6 through `CoreStreaming.evaluate` (flatMapGroupsWithState)
  * over fixed-size `MemoryStream` micro-batches of the stock stream, on
  * `local[k]` with k = min(4, cores). A closed loop: the next batch is added
  * once `processAllAvailable` has returned for the previous one.
  *
  * Every event of a batch is handed off when `addData` starts and its complex
  * events are back when `processAllAvailable` returns, so an event's latency
  * is its batch's latency.
  */
final class Streaming(args: Args) {
  import Workloads.Limit

  private val cores = math.min(4, Runtime.getRuntime.availableProcessors)
  private val ckpt = new java.io.File(s"${args.workDir}/checkpoints/q6-${ProcessHandle.current.pid}")
  private val sinkName = "perfbench_q6"

  private val spark: SparkSession = SparkSession.builder()
    .master(s"local[$cores]")
    .appName("perfbench")
    .config("spark.ui.enabled", "false")
    .config("spark.sql.shuffle.partitions", cores.toString)
    .config("spark.local.dir", s"${args.workDir}/spark-local")
    .config("spark.sql.warehouse.dir", s"${args.workDir}/spark-warehouse")
    .config("spark.sql.streaming.numRecentProgressUpdates", "100000")
    .getOrCreate()
  import spark.implicits._
  private implicit val sqlCtx: SQLContext = spark.sqlContext

  private val text = Workloads.stockText("Q6")
  private val q = CeqlParser.parse(text)
  private val input = MemoryStream[Ev]
  private val query: StreamingQuery = CoreStreaming.evaluate(input.toDS(), q, Limit)
    .writeStream.format("memory").queryName(sinkName).outputMode("append")
    .option("checkpointLocation", ckpt.getPath)
    .start()

  private val batchEvents = 10000
  private val WarmBatches = 35
  private val WarmCapSeconds = 45
  private val StepMs = 300L

  def close(): Unit =
    try { query.stop(); spark.stop() } finally deleteTree(ckpt)

  private def deleteTree(f: java.io.File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
  }

  final class Batch(val id: Int, val latencyNs: Long)

  /** Batch `b` of the input: stock events generated from the seed and the
    * batch number, numbered and timed as one stream. Each batch is generated
    * just before it is added, so the measured heap holds one batch of input.
    */
  private def batchInput(b: Int): Array[Ev] = {
    val base = b.toLong * batchEvents
    StreamGen.stockStream(batchEvents, seed = args.seed * 1000003L + b, tsStepMs = StepMs)
      .map(e => e.copy(idx = base + e.idx, ts = (base + e.idx) * StepMs))
  }

  def run(report: Report): Unit = {
    args.context(batchEvents).foreach { case (k, v) => report.rec(k, v) }

    val tr = new Tracer(IndexedSeq("batch", "spark.addData", "spark.processAllAvailable"), 1 << 16)
    val warm, measured = mutable.ArrayBuffer.empty[Batch]
    val traced, untraced = mutable.ArrayBuffer.empty[Batch]
    var failed = 0L
    var genBytes = 0L
    def batch(id: Int, trace: Boolean): Batch = {
      val a = Jvm.threadAllocated
      val slice = batchInput(id).toSeq
      genBytes += Jvm.threadAllocated - a
      val t0 = System.nanoTime()
      val ok = try { input.addData(slice); true } catch { case NonFatal(_) => false }
      val t1 = System.nanoTime()
      val ok2 = ok && (try { query.processAllAvailable(); true } catch { case NonFatal(_) => false })
      val t2 = System.nanoTime()
      if (!ok2) failed += 1
      if (trace) {
        val root = tr.open(id, 0, -1)
        tr.span(id, 1, t0, t1, root); tr.span(id, 2, t1, t2, root)
        tr.close(root, 0, t0, t2)
      }
      new Batch(id, t2 - t0)
    }

    // Spark's per-batch code keeps compiling for a few dozen batches: batch
    // latency falls from about 600 ms after 15 batches to a level near
    // 300 ms from about batch 30 on. Warm-up is `WarmBatches` batches, so
    // every run measures from the same batch; `WarmCapSeconds` bounds it on a
    // slow host.
    var id = 0
    val warmCap = System.nanoTime() + (WarmCapSeconds * 1e9).toLong
    while (!args.smoke && warm.length < WarmBatches && System.nanoTime() < warmCap) {
      warm += batch(id, trace = false); id += 1
    }
    // A full collection now, as before every in-process pass, so that no
    // run measures the warm-up's garbage.
    System.gc()
    val gc0 = Jvm.gcMillis
    val a0 = Jvm.allAllocated
    genBytes = 0L
    val end = System.nanoTime() + (args.seconds * 1e9).toLong
    val smokeBatches = 12 // enough input for Q6 to match at all
    while (if (args.smoke) measured.length < smokeBatches else measured.length < 2 || System.nanoTime() < end) {
      val tracedBatch = args.trace && measured.length % 2 == 1
      val b = batch(id, tracedBatch)
      measured += b
      (if (tracedBatch) traced else untraced) += b
      id += 1
    }
    val gcMs = (Jvm.gcMillis - gc0).toDouble / measured.length
    val allocPerEvent = (Jvm.allAllocated - a0 - genBytes).toDouble / (measured.length.toLong * batchEvents)
    report.attempted = (warm.length + measured.length).toLong
    report.failed += failed

    val progress: Map[Long, StreamingQueryProgress] = query.recentProgress.map(p => p.batchId -> p).toMap
    val measuredIds = measured.map(_.id.toLong).toSet
    val mp = progress.filter { case (bid, _) => measuredIds.contains(bid) }.values.toSeq.sortBy(_.batchId)
    def dur(p: StreamingQueryProgress, k: String): Double =
      Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)

    val latUs = measured.map(_.latencyNs / 1000.0).toSeq
    val eps = measured.length.toDouble * batchEvents / (measured.map(_.latencyNs).sum / 1e9)
    report.note(s"$batchEvents events per batch on local[$cores]; ${warm.length} warm-up and ${measured.length} measured batches")
    report.e2e("throughput_eps", eps, "1/s")
    report.e2e("latency_p50_us", Stats.median(latUs), "us")
    report.e2e("latency_p99_us", Stats.percentile(latUs, 99), "us")

    // Streamed matches against per-key CoreEngines over the same events; the
    // same pass gives the state layer's numbers from outside Spark.
    val streamed = spark.table(sinkName).as[MatchRow].collect().toSeq
    val fed = id * batchEvents
    val fedEvents = (0 until id).iterator.flatMap(batchInput).toArray
    val expected = mutable.ArrayBuffer.empty[MatchRow]
    val state = StatePass.run(new KeyedEngines(IndexedSeq(q), Limit), fedEvents,
      (_, key, out) => out.foreach(ce => expected += MatchRow(key, ce.start, ce.end, ce.data.mkString(","))))
    val (s1, s2) = (streamed.toSet, expected.toSet)
    val mismatches = (s1.diff(s2).size + s2.diff(s1).size).toLong +
      (if (streamed.size != s1.size) 1 else 0) + (if (expected.isEmpty) 1 else 0)
    report.check("stream", mismatches,
      s"${streamed.size} streamed matches over $fed events vs ${expected.size} from per-key CoreEngines")
    report.e2e("state_peak_kb", state.peakKb, "KB")
    state.report(report)
    report.note(s"Spark reports memoryUsedBytes=${mp.lastOption.flatMap(_.stateOperators.headOption).map(_.memoryUsedBytes).getOrElse(0L)}")

    val batchMs = measured.map(_.latencyNs / 1e6).toSeq
    val (tailMs, tailP) = Stats.tail(batchMs)
    report.note(f"batch latency p50 ${Stats.median(batchMs)}%.1f ms; tail p$tailP%d = $tailMs%.1f ms over ${batchMs.length} batches" +
      (if (tailP == 0) " (fewer than 20 batches: no tail)" else ""))
    val withMatches = measured.filter(b => progress.get(b.id.toLong).exists(_.sink.numOutputRows > 0)).map(_.latencyNs / 1000.0).toSeq

    if (args.trace) {
      val tEps = traced.length.toDouble * batchEvents / (traced.map(_.latencyNs).sum / 1e9)
      val uEps = untraced.length.toDouble * batchEvents / (untraced.map(_.latencyNs).sum / 1e9)
      report.layer("bench.trace_overhead", uEps / tEps - 1.0, "ratio")
      tr.writeCsv(args.traceFile)
      report.note(s"spans written to ${args.traceFile}")
    }
    // Layers that run inside Spark tasks are not traced from outside; the
    // counters below come from the per-key engines of the state pass.
    Seq("pred.bits_ns", "engine.route_ns", "cea.step_ns", "engine.update_ns", "tecs.enum_ns_per_output")
      .foreach(report.layer(_, 0.0, "ns"))
    report.layer("tecs.enum_share", 0.0, "ratio")
    val dets = state.dets
    report.layer("pred.atoms", dets.map(_.reg.size).maxOption.getOrElse(0).toDouble, "count")
    report.layer("engine.partitions", state.keys.toDouble, "count")
    report.layer("cea.det_states", dets.map(_.numDetStates).sum.toDouble, "count")
    report.layer("cea.cache_entries", dets.map(_.cacheSize).sum.toDouble, "count")
    report.layer("engine.outputs", streamed.size.toDouble, "count")
    report.layer("engine.match_latency_p50_us", Stats.median(withMatches), "us")
    report.layer("engine.match_latency_p99_us", Stats.percentile(withMatches, 99), "us")
    report.layer("spark.add_batch_ms", Stats.median(mp.map(dur(_, "addBatch"))), "ms")
    report.layer("spark.trigger_ms", Stats.median(mp.map(dur(_, "triggerExecution"))), "ms")
    report.layer("spark.batch_latency_p50_ms", Stats.median(batchMs), "ms")
    report.layer("spark.batch_latency_tail_ms", tailMs, "ms")
    report.layer("spark.state_rows",
      mp.lastOption.flatMap(_.stateOperators.headOption).map(_.numRowsTotal.toDouble).getOrElse(0.0), "count")
    Setup.report(report, Seq(text), Seq(q))
    report.jvm(gcMs, allocPerEvent)
    report.rec("throughput_eps", Json.num(eps))
    report.rec("batch_ms", Json.arr((warm ++ measured).map(b => Json.num(math.rint(b.latencyNs / 1e6))).toSeq))
  }
}
