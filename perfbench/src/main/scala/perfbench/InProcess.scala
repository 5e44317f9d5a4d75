package perfbench

import repro.baselines.Baselines
import repro.core.{ComplexEvent, Ev}
import repro.core.cea.{Compiler, Determinizer}
import repro.core.ceql.{CeqlParser, CeqlQuery}
import repro.core.engine.{Engines, PartitionedEngine, StreamEngine}
import scala.collection.mutable
import scala.util.control.NonFatal

/** The in-process workloads: one thread hands each event to the engines of
  * every query in turn (a closed loop) and takes back their complex events.
  *
  * A run is a sequence of passes. Each pass feeds the same pre-generated
  * events to freshly built engines over the compiled queries, so every
  * throughput is stated at the pass's event count and state that grows with
  * stream length grows the same way in every pass. After a warm-up, each
  * pass is timed as a whole, and one event in sixteen is also timed on its
  * own.
  *
  * Figures cover every measured pass: throughput is their events over their
  * total time, and the latency percentiles are over the timed events of all
  * of them. The speed of a shared machine switches between levels every few
  * passes, and a median over passes jumps between those levels where a total
  * moves smoothly.
  */
final class InProcess(w: Workload, args: Args) {
  import Workloads.Limit

  private val queries: IndexedSeq[CeqlQuery] = w.queries.map { case (_, text) => CeqlParser.parse(text) }
  private val dets: IndexedSeq[Determinizer] = queries.map { q =>
    val (cea, reg) = Compiler.compile(q.pattern)
    new Determinizer(cea, reg)
  }
  private def engines(): Array[StreamEngine] =
    queries.indices.map(i => Engines.coreFromDet(dets(i), queries(i), Limit)).toArray
  // Built once here so that "engine ready" includes engine construction.
  engines()

  private val passEvents = if (args.smoke) 5000 else w.passEvents
  /** One event in this many is timed on its own, for the latency figures.
    * Its two clock reads add about 2.5 ns per event on average, and every
    * pass yields both throughput and latency.
    */
  private val SampleEvery = 16

  final class Pass(val seconds: Double, val digest: Digest,
                   val failed: Long, val gcMs: Double, val allocPerEvent: Double)

  private var failures = 0L

  /** Hands `ev` to the engine of every query; true when any emitted output. */
  private def handOff(es: Array[StreamEngine], ev: Ev, digest: Digest): Boolean = {
    var emitted = false
    var k = 0
    while (k < es.length) {
      val out = try es(k).onEvent(ev) catch { case NonFatal(_) => failures += 1; Nil }
      if (out.nonEmpty) { digest.add(k, out); emitted = true }
      k += 1
    }
    emitted
  }

  /** One pass over `evs`. It records in `lat` the latency (ns) of every
    * `SampleEvery`-th event and, in `matchLat`, that of each sampled event
    * that emitted output.
    */
  private def pass(evs: Array[Ev], lat: LongBuf, matchLat: LongBuf): Pass = {
    val es = engines()
    lat.clear(); matchLat.clear()
    System.gc()
    val digest = new Digest
    val f0 = failures
    val gc0 = Jvm.gcMillis
    val a0 = Jvm.threadAllocated
    val t0 = System.nanoTime()
    var i = 0
    while (i < evs.length) {
      if (i % SampleEvery == 0) {
        val s = System.nanoTime()
        val emitted = handOff(es, evs(i), digest)
        val d = System.nanoTime() - s
        lat.add(d)
        if (emitted) matchLat.add(d)
      } else handOff(es, evs(i), digest)
      i += 1
    }
    val secs = (System.nanoTime() - t0) / 1e9
    val alloc = (Jvm.threadAllocated - a0).toDouble / evs.length
    new Pass(secs, digest, failures - f0, (Jvm.gcMillis - gc0).toDouble, alloc)
  }

  private val spanNames = IndexedSeq("event", "engine.route", "pred.bits", "cea.step",
    "engine.onEvent", "tecs.enumerate")

  /** A traced pass: spans around each public call the benchmark makes per
    * event. `pred.bits`, `cea.step` (from the initial det-state, which every
    * event steps from) and `engine.route` replay the engine's own calls, so
    * their cost is measured separately from `engine.onEvent`;
    * `tecs.enumerate` is the child of `engine.onEvent` whose duration is the
    * per-event `enumNanos` delta (its start is placed so it ends with its
    * parent).
    */
  private def tracedPass(evs: Array[Ev], tr: Tracer, matchLat: LongBuf): (Pass, Array[StreamEngine]) = {
    val es = engines()
    val keyFns = queries.map(q => if (q.partitionBy.nonEmpty) Engines.partKeyFn(q.partitionBy) else null)
    val Seq(sEvent, sRoute, sBits, sStep, sOn, sEnum) = spanNames.map(tr.id)
    System.gc()
    val digest = new Digest
    val f0 = failures
    val t0 = System.nanoTime()
    var i = 0
    while (i < evs.length) {
      val ev = evs(i)
      val idx = ev.idx
      val root = tr.open(idx, sEvent, -1)
      val e0 = System.nanoTime()
      var onNs = 0L
      var emitted = false
      var k = 0
      while (k < es.length) {
        if (keyFns(k) != null) {
          val a = System.nanoTime(); keyFns(k)(ev); tr.span(idx, sRoute, a, System.nanoTime(), root)
        }
        val det = dets(k)
        val b = System.nanoTime()
        val v = det.bits(ev)
        val c = System.nanoTime()
        tr.span(idx, sBits, b, c, root)
        det.step(det.initial, v)
        val d = System.nanoTime()
        tr.span(idx, sStep, c, d, root)
        val en0 = es(k).enumNanos
        val s = System.nanoTime()
        val out = try es(k).onEvent(ev) catch { case NonFatal(_) => failures += 1; Nil }
        val e = System.nanoTime()
        val enumNs = es(k).enumNanos - en0
        val on = tr.span(idx, sOn, s, e, root)
        tr.span(idx, sEnum, e - enumNs, e, on)
        onNs += e - s
        if (out.nonEmpty) { digest.add(k, out); emitted = true }
        k += 1
      }
      tr.close(root, sEvent, e0, System.nanoTime())
      if (emitted) matchLat.add(onNs)
      i += 1
    }
    val secs = (System.nanoTime() - t0) / 1e9
    (new Pass(secs, digest, failures - f0, 0.0, 0.0), es)
  }

  /** CORE without output limit against the Esper-style baseline, which keeps
    * materialized partial matches instead of a tECS, on a prefix.
    */
  private def oracle(evs: Array[Ev], report: Report): Unit = {
    val prefix = evs.take(math.min(Workloads.OraclePrefix, evs.length))
    var mismatches = 0L
    var compared = 0L
    for (qi <- queries.indices) {
      val core = Engines.core(queries(qi), -1)
      val esper = Baselines.esper(queries(qi), -1)
      val a, b = mutable.HashSet.empty[ComplexEvent]
      prefix.foreach { ev => a ++= core.onEvent(ev); b ++= esper.onEvent(ev) }
      mismatches += (a.diff(b).size + b.diff(a).size).toLong
      compared += a.size
    }
    if (w.noMatch) mismatches += compared
    else if (compared == 0) mismatches += 1 // the check would be vacuous
    report.check("oracle", mismatches,
      s"CORE (no output limit) vs Baselines.esper on a ${prefix.length}-event prefix: $compared complex events" +
        (if (w.noMatch) " (this workload must emit none)" else ""))
  }

  /** Warms up on input from a fixed seed, running the same kinds of pass as
    * the measurement. With `-Xbatch`, what the JIT compiles depends only on
    * the profile gathered before each compilation, so every run compiles the
    * same code whatever seed it measures; warming up on the measured input
    * made some seeds run up to 1.5x faster than others.
    */
  private def warmUp(lat: LongBuf, matchLat: LongBuf): Unit = {
    val evs = w.gen(passEvents, Workloads.WarmupSeed)
    val end = System.nanoTime() + (args.warmupSeconds * 1e9).toLong
    var n = 0
    while (n < 4 || System.nanoTime() < end) {
      if (args.trace && n % 2 == 1) tracedPass(evs, new Tracer(spanNames, 0), matchLat)
      else pass(evs, lat, matchLat)
      n += 1
    }
  }

  def run(report: Report): Unit = {
    val lat, matchLat = new LongBuf(passEvents)
    warmUp(lat, matchLat)
    val evs = w.gen(passEvents, args.seed)
    args.context(passEvents).foreach { case (k, v) => report.rec(k, v) }

    val thr = mutable.ArrayBuffer.empty[Pass]
    val traced = mutable.ArrayBuffer.empty[Pass]
    // The timed events of every measured pass, pooled between passes.
    val allLat, allMatchLat = new LongBuf(passEvents)
    val tr = new Tracer(spanNames, 1 << 18)
    var lastEngines: Array[StreamEngine] = Array.empty
    var outputsPerPass = 0L
    val end = System.nanoTime() + (args.seconds * 1e9).toLong
    var n = 0
    while (n < 2 || System.nanoTime() < end) {
      if (!args.trace || n % 2 == 0) {
        thr += pass(evs, lat, matchLat)
        allLat.addAll(lat)
        if (!args.trace) allMatchLat.addAll(matchLat)
      } else {
        matchLat.clear()
        val (p, es) = tracedPass(evs, tr, matchLat)
        traced += p
        lastEngines = es
        outputsPerPass = p.digest.count
        allMatchLat.addAll(matchLat)
      }
      n += 1
    }
    val measured = (thr ++ traced).toSeq
    val digests = measured.map(_.digest)
    report.attempted = measured.length.toLong * passEvents
    report.failed += measured.map(_.failed).sum

    def eventsPerSecond(ps: Iterable[Pass]) = ps.size.toDouble * passEvents / ps.map(_.seconds).sum
    val eps = eventsPerSecond(thr)
    val gcMs = Stats.median(thr.map(_.gcMs).toSeq)
    val alloc = Stats.median(thr.map(_.allocPerEvent).toSeq)
    report.note(s"$passEvents events per pass, ${thr.length} passes" +
      (if (args.trace) s" and ${traced.length} traced passes" else "") +
      s"; latency timed on 1 event in $SampleEvery; queries ${w.queries.map(_._1).mkString(",")}; limit $Limit")
    report.e2e("throughput_eps", eps, "1/s")

    // Untimed: per-key engines for the state layer and a second digest.
    val state = StatePass.run(new KeyedEngines(queries, Limit), evs)
    report.e2e("state_peak_kb", state.peakKb, "KB")
    report.check("digest", digests.count(d => !d.same(digests.head)).toLong + (if (state.digest.same(digests.head)) 0 else 1),
      s"${digests.length} passes and the per-key state pass emit ${digests.head}")
    oracle(evs, report)

    if (!args.trace) {
      report.e2e("latency_p50_us", allLat.percentile(50) / 1000, "us")
      report.e2e("latency_p99_us", allLat.percentile(99) / 1000, "us")
      report.note(f"match_latency_p50_us = ${allMatchLat.percentile(50) / 1000}%.3f us, match_latency_p99_us = ${allMatchLat.percentile(99) / 1000}%.3f us" +
        s" (${allMatchLat.size} of ${allLat.size} timed events emitted)")
    } else {
      val tracedEps = eventsPerSecond(traced)
      report.note(f"traced throughput $tracedEps%.0f e/s vs untraced $eps%.0f e/s")
      val evCount = traced.length.toDouble * passEvents
      def perEvent(name: String) = tr.totalNs(tr.id(name)) / evCount
      val onNs = tr.totalNs(tr.id("engine.onEvent")).toDouble
      val enumNs = tr.totalNs(tr.id("tecs.enumerate")).toDouble
      report.layer("bench.trace_overhead", eps / tracedEps - 1.0, "ratio")
      report.layer("pred.bits_ns", perEvent("pred.bits"), "ns")
      report.layer("pred.atoms", dets.map(_.reg.size).sum.toDouble, "count")
      report.layer("engine.route_ns", perEvent("engine.route"), "ns")
      report.layer("engine.partitions", lastEngines.collect { case p: PartitionedEngine => p.numPartitions }.sum.toDouble, "count")
      report.layer("cea.step_ns", perEvent("cea.step"), "ns")
      report.layer("cea.det_states", dets.map(_.numDetStates).sum.toDouble, "count")
      report.layer("cea.cache_entries", dets.map(_.cacheSize).sum.toDouble, "count")
      report.layer("engine.update_ns", (onNs - enumNs) / evCount, "ns")
      report.layer("engine.outputs", outputsPerPass.toDouble, "count")
      report.layer("engine.match_latency_p50_us", allMatchLat.percentile(50) / 1000, "us")
      report.layer("engine.match_latency_p99_us", allMatchLat.percentile(99) / 1000, "us")
      report.layer("tecs.enum_ns_per_output", if (outputsPerPass == 0) 0.0 else enumNs / (outputsPerPass * traced.length), "ns")
      report.layer("tecs.enum_share", if (onNs == 0) 0.0 else enumNs / onNs, "ratio")
      tr.writeCsv(args.traceFile)
      report.note(s"spans written to ${args.traceFile}")
    }
    state.report(report)
    Setup.report(report, w.queries.map(_._2), queries)
    report.jvm(gcMs, alloc)
    sparkIdle(report)
    report.rec("throughput_eps", Json.num(eps))
    report.rec("pass_eps", Json.arr(thr.map(p => Json.num(math.rint(passEvents / p.seconds))).toSeq))
  }

  /** The Spark layer does not run in process; its metrics read 0 here. */
  private def sparkIdle(report: Report): Unit = {
    Seq("spark.add_batch_ms", "spark.trigger_ms", "spark.batch_latency_p50_ms", "spark.batch_latency_tail_ms")
      .foreach(report.layer(_, 0.0, "ms"))
    report.layer("spark.state_rows", 0.0, "count")
  }
}
