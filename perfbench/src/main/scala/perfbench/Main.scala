package perfbench

import repro.core.ceql.{CeqlParser, CeqlQuery}
import repro.core.cea.Compiler

/** Command line of one benchmark process (see run.py, which launches it). */
final case class Args(
    workload: String,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    smoke: Boolean,
    setupOnly: Boolean,
    workDir: String,
) {
  /** Warm-up before measuring: JIT compilation and the determinizer cache. */
  def warmupSeconds: Double = if (smoke) 0.0 else 2.0
  def traceFile: String = s"$workDir/traces/$workload-seed$seed.csv"

  /** Run-record fields for telling noise from code changes. */
  def context(events: Long): Seq[(String, String)] = Seq(
    "workload" -> Json.str(workload),
    "seed"     -> seed.toString,
    "traced"   -> trace.toString,
    "events"   -> events.toString,
    "nproc"    -> Runtime.getRuntime.availableProcessors.toString,
    "jvm"      -> Json.str(Jvm.version),
    "jvm_flags" -> Json.arr(Jvm.flags.map(Json.str)),
  )
}

object Args {
  def parse(a: Array[String]): Args = {
    val m = a.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = need("workload")
    require(Workloads.names.contains(w), s"unknown workload $w; one of ${Workloads.names.mkString(", ")}")
    Args(w, need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      a.contains("--smoke"), a.contains("--setup-only"), need("work-dir"))
  }
}

/** Warm, repeated timings of the set-up layers (`ceql`, `cea` compile). */
object Setup {
  private def medianUs(reps: Int)(f: => Unit): Double = {
    (1 to reps).foreach(_ => f)
    Stats.median((1 to reps).map { _ =>
      val t0 = System.nanoTime(); f; (System.nanoTime() - t0) / 1000.0
    })
  }
  def report(r: Report, texts: Seq[String], qs: Seq[CeqlQuery]): Unit = {
    r.layer("ceql.parse_us", medianUs(200)(texts.foreach(CeqlParser.parse)), "us")
    r.layer("cea.compile_us", medianUs(200)(qs.foreach(q => Compiler.compile(q.pattern))), "us")
  }
}

/** One benchmark process. It sets its workload up, prints `READY` (run.py
  * times set-up from process start to that line), then — unless
  * `--setup-only` — generates the inputs, measures, checks the outputs and
  * prints a `RECORD` and a `RESULT` line.
  */
object Main {
  def ready(): Unit = { Console.out.println("READY"); Console.out.flush() }

  def main(argv: Array[String]): Unit = {
    val args = Args.parse(argv)
    val report = new Report(args.workload, args.trace)
    if (args.workload == "stream_q6") {
      val s = new Streaming(args)
      try {
        ready()
        if (!args.setupOnly) { s.run(report); report.print() }
      } finally s.close()
    } else {
      val w = new InProcess(Workloads.all.find(_.name == args.workload).get, args)
      ready()
      if (!args.setupOnly) { w.run(report); report.print() }
    }
  }
}
