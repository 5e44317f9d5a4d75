package repro.harness

import repro.core.Ev
import repro.core.ceql.{Consume, Strategy}
import repro.core.engine.{Engines, StreamEngine}
import repro.gen.StreamGen

/** The five reproduced tables of the paper's §6 (Figs 7–9), each defined once
  * and shared by the `bench/` suites and the `repro.jobs.Tables` main.
  *
  * Each table generates a base stream of `events` events and measures every
  * (system, config) for `budgetMs` over that stream cycled endlessly (the
  * paper pre-loads a stream larger than any system gets through in the
  * budget). Defaults: 300 000 events and `BENCH_MS` (1 s).
  */
object Tables {

  val DefaultEvents: Int = 300000

  /** T1 (Fig 7): sequence queries A1;…;An with output, n ∈ {3,5,7,9}, window
    * 100 events, consume-on-match, ≤10 outputs/event (FlinkCEP 1), plus the
    * peak serialized state of each system.
    */
  def t1(events: Int = DefaultEvents, budgetMs: Long = Harness.budgetMs): Seq[Measurement] = {
    val rows = for {
      n <- Seq(3, 5, 7, 9)
      base = StreamGen.randomStream(events, Workloads.seqTypes(n))
      (sys, mk) <- Workloads.systems(Workloads.seqQuery(n, 100))
    } yield Row(sys, s"n=$n", mk, base)
    measureAll(rows, budgetMs).zip(rows).map { case (m, r) =>
      // Memory is measured in a separate pass, as in the paper (§6 Setup),
      // over a fifth of the events the throughput pass got through (at least
      // events/15, at most 100 000), so slow engines get fewer events and the
      // pass stays bounded.
      val stateEvents = math.min(100000L, math.max(m.events / 5, events / 15L))
      m.copy(stateKB = Harness.statePeakKB(r.mk(), endless(r.base), stateEvents))
    }
  }

  /** T2 (Fig 8 left): A1;A2;A3 where A3 never occurs, windows
    * T ∈ {50,100,150,200} events.
    */
  def t2(events: Int = DefaultEvents, budgetMs: Long = Harness.budgetMs): Seq[Measurement] = {
    val base = StreamGen.randomStream(events, Seq("A1", "A2"))
    measureAll(for {
      t <- Seq(50L, 100L, 150L, 200L)
      (sys, mk) <- Workloads.systems(Workloads.seqQuery(3, t))
    } yield Row(sys, s"T=$t", mk, base), budgetMs)
  }

  /** T3 (Fig 8 right): selection strategies on A1;A2;A3 with A3 hidden,
    * T=100. CORE runs ALL/NEXT/LAST/MAX; baselines their default strategy.
    */
  def t3(events: Int = DefaultEvents, budgetMs: Long = Harness.budgetMs): Seq[Measurement] = {
    val base = StreamGen.randomStream(events, Seq("A1", "A2"))
    val q = Workloads.seqQuery(3, 100)
    val core = for (s <- Seq(Strategy.All, Strategy.Next, Strategy.Last, Strategy.Max))
      yield Row(s"CORE-$s", "T=100", () => Engines.core(q.copy(strategy = s), 10), base)
    val others = for ((sys, mk) <- Workloads.systems(q).drop(1))
      yield Row(s"$sys-default", "T=100", mk, base)
    measureAll(core ++ others, budgetMs)
  }

  /** T4 (Fig 9 left): iteration (K3 = A1;A2+;A3, K5) and disjunction
    * (D3 = A1;(A2 OR A2');A3, D5), window 100 events. SASE lacks disjunction
    * (§6), so it skips D3/D5.
    */
  def t4(events: Int = DefaultEvents, budgetMs: Long = Harness.budgetMs): Seq[Measurement] = {
    val configs = Seq(
      ("K3", Workloads.kleeneQuery(3, 100), Workloads.seqTypes(3)),
      ("K5", Workloads.kleeneQuery(5, 100), Workloads.seqTypes(5)),
      ("D3", Workloads.disjQuery(3, 100), Workloads.disjTypes(3)),
      ("D5", Workloads.disjQuery(5, 100), Workloads.disjTypes(5)),
    )
    measureAll(for {
      (cfg, q, types) <- configs
      base = StreamGen.randomStream(events, types)
      (sys, mk) <- Workloads.systems(q)
      if !(sys == "SASE" && cfg.startsWith("D"))
    } yield Row(sys, cfg, mk, base), budgetMs)
  }

  /** T5 (Fig 9 right): appendix-C stock queries Q1–Q7 over the synthetic
    * stock stream, consume-on-match. SASE lacks disjunction, so it runs only
    * Q1–Q3.
    */
  def t5(events: Int = DefaultEvents, budgetMs: Long = Harness.budgetMs): Seq[Measurement] = {
    val base = StreamGen.stockStream(events)
    measureAll(for {
      qn <- (1 to 7).map(i => s"Q$i")
      q = Workloads.stockQuery(qn).copy(consume = Consume.Any)
      (sys, mk) <- Workloads.systems(q)
      if !(sys == "SASE" && Set("Q4", "Q5", "Q6", "Q7").contains(qn))
    } yield Row(sys, qn, mk, base), budgetMs)
  }

  private final case class Def(title: String, run: (Int, Long) => Seq[Measurement], fig7: Boolean = false)

  private val defs: Map[String, Def] = Map(
    "T1" -> Def("T1 — sequence queries with output (T=100 events)", t1, fig7 = true),
    "T2" -> Def("T2 — sequence query without output (A3 hidden)", t2),
    "T3" -> Def("T3 — selection strategies (A3 hidden, T=100)", t3),
    "T4" -> Def("T4 — iteration and disjunction (T=100)", t4),
    "T5" -> Def("T5 — stock market queries (WITHIN 30s)", t5),
  )

  val names: Seq[String] = defs.keys.toSeq.sorted

  def run(name: String, events: Int, budgetMs: Long): Seq[Measurement] = defs(name).run(events, budgetMs)

  /** The table `name` as markdown, with its title and columns. */
  def render(name: String, ms: Seq[Measurement]): String = {
    val d = defs(name)
    Harness.table(d.title, ms, d.fig7)
  }

  private final case class Row(system: String, config: String, mk: () => StreamEngine, base: Array[Ev])

  private def endless(base: Array[Ev]): Iterator[Ev] = StreamGen.cycled(base, Long.MaxValue / 4)

  /** Measures every row. Each system is first warmed up (JIT) on the first
    * config; then each measurement gets its own warm-up on a throwaway engine
    * and a clean GC, so the first configs measured are not penalized relative
    * to later ones. Warm-ups last 200 and 150 ms, or the budget if shorter.
    */
  private def measureAll(rows: Seq[Row], budgetMs: Long): Seq[Measurement] = {
    def warmup(r: Row, ms: Long): Unit = {
      val _ = Harness.measure("warmup", "", r.mk(), endless(r.base), ms)
    }
    rows.filter(_.config == rows.head.config).foreach(warmup(_, math.min(budgetMs, 200L)))
    rows.map { r =>
      warmup(r, math.min(budgetMs, 150L))
      System.gc()
      Harness.measure(r.system, r.config, r.mk(), endless(r.base), budgetMs)
    }
  }
}
