package perfbench

import repro.core.Ev
import repro.gen.StreamGen
import repro.harness.{Workloads => Paper}

/** The benchmark's workloads. Why each exists is recorded in NOTES.md; in short:
  *
  *  - `seq9_w100`: the paper's largest sequence query (Fig 7, n = 9) — the
  *    most det-states per event, and matches often enough to time enumeration.
  *  - `seq3_w200_nomatch`: A3 never occurs (Fig 8 left, T = 200) — pure
  *    Algorithm 1 update, zero enumeration, longest union-lists.
  *  - `stock_q1_q6`: appendix-C Q1–Q6 from CEQL text — string and numeric
  *    filters, time windows, disjunction and PARTITION BY routing.
  *  - `stream_q6`: Q6 through `CoreStreaming` — the only workload that
  *    reaches Spark and the per-key state encode/decode.
  *
  * No workload uses `+`: Kleene-plus compilation is known to be wrong, and
  * the output check shares that compiler, so it could not catch the bug.
  */
final case class Workload(
    name: String,
    /** CEQL texts, in the order events are fed to the engines. */
    queries: IndexedSeq[(String, String)],
    /** Events per pass: the event count every throughput is stated at. */
    passEvents: Int,
    /** Generates `n` input events from the seed. */
    gen: (Int, Long) => Array[Ev],
    /** True when the query cannot match on this stream by construction. */
    noMatch: Boolean = false,
)

object Workloads {

  /** Per-event output limit of the paper's setup (§6). */
  val Limit = 10

  /** Seed of the input that in-process runs warm up on, whatever seed they measure. */
  val WarmupSeed = 0L

  /** Prefix on which CORE is checked against the Esper-style baseline. */
  val OraclePrefix = 20000

  private def seqText(n: Int, window: Int): String =
    s"SELECT * FROM RandomStream WHERE ${(1 to n).map(i => s"A$i").mkString("; ")} " +
      s"WITHIN $window events CONSUME BY ANY"

  /** The appendix-C text, under the consume-on-match policy every §6 run uses. */
  def stockText(name: String): String = {
    val t = Paper.stockQueryTexts(name)
    if (t.contains("CONSUME BY ANY")) t else t + "\n      CONSUME BY ANY"
  }

  val all: Seq[Workload] = Seq(
    Workload("seq9_w100", IndexedSeq("seq9" -> seqText(9, 100)), 1000000,
      (n, seed) => StreamGen.randomStream(n, Paper.seqTypes(9), seed = seed)),
    Workload("seq3_w200_nomatch", IndexedSeq("seq3" -> seqText(3, 200)), 2000000,
      (n, seed) => StreamGen.randomStream(n, Seq("A1", "A2"), seed = seed), noMatch = true),
    Workload("stock_q1_q6", (1 to 6).map(i => s"Q$i" -> stockText(s"Q$i")), 200000,
      (n, seed) => StreamGen.stockStream(n, seed = seed)),
  )

  val names: Seq[String] = all.map(_.name) :+ "stream_q6"
}
