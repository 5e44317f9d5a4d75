package repro.harness

import repro.baselines.Baselines
import repro.core.cel._
import repro.core.ceql._
import repro.core.engine.{Engines, StreamEngine}

/** The paper's benchmark queries (§6 + appendix C), shared by jobs, benches,
  * and tests.
  */
object Workloads {

  /** `SELECT * FROM RandomStream WHERE A1; ...; An WITHIN T` (§6, Fig 7/8). */
  def seqQuery(n: Int, window: Long, consume: Consume = Consume.Any): CeqlQuery =
    CeqlQuery(Strategy.All, None, Seq("RandomStream"),
      Cel.seqOfTypes((1 to n).map(i => s"A$i"): _*),
      Nil, CountWindow(window), consume)

  /** Event types A1..An (for stream generation). */
  def seqTypes(n: Int): Seq[String] = (1 to n).map(i => s"A$i")

  /** K3 := A1;A2+;A3 and K5 := A1;A2+;A3;A4+;A5 (Fig 9 left). */
  def kleeneQuery(n: Int, window: Long, consume: Consume = Consume.Any): CeqlQuery = {
    require(n == 3 || n == 5)
    val parts: Seq[Cel] = (1 to n).map(i => if (i % 2 == 0) CPlus(CAtom(s"A$i")) else CAtom(s"A$i"))
    CeqlQuery(Strategy.All, None, Seq("RandomStream"), Cel.seq(parts: _*), Nil,
      CountWindow(window), consume)
  }

  /** D3 := A1;(A2 OR A2');A3 and D5 analogously (Fig 9 left). */
  def disjQuery(n: Int, window: Long, consume: Consume = Consume.Any): CeqlQuery = {
    require(n == 3 || n == 5)
    val parts: Seq[Cel] = (1 to n).map(i =>
      if (i % 2 == 0) COr(CAtom(s"A$i"), CAtom(s"A$i'")) else CAtom(s"A$i"))
    CeqlQuery(Strategy.All, None, Seq("RandomStream"), Cel.seq(parts: _*), Nil,
      CountWindow(window), consume)
  }

  def disjTypes(n: Int): Seq[String] =
    (1 to n).flatMap(i => if (i % 2 == 0) Seq(s"A$i", s"A$i'") else Seq(s"A$i"))

  /** Appendix-C stock queries Q1–Q7, as CEQL text (exercises the parser). */
  val stockQueryTexts: Map[String, String] = Map(
    "Q1" -> """SELECT * FROM S
      WHERE (SELL as msft; BUY as oracle; BUY as csco; SELL as amat)
      FILTER msft[name = 'MSFT'] AND oracle[name = 'ORCL'] AND
      csco[name = 'CSCO'] AND amat[name = 'AMAT']
      WITHIN 30000 [stock_time]""",
    "Q2" -> """SELECT * FROM S
      WHERE (SELL as msft; BUY as oracle; BUY as csco; SELL as amat)
      FILTER msft[name = 'MSFT'] AND msft[price > 26.0] AND
      oracle[name = 'ORCL'] AND oracle[price > 11.14] AND
      csco[name = 'CSCO'] AND amat[name = 'AMAT'] AND amat[price >= 18.92]
      WITHIN 30000 [stock_time]""",
    "Q3" -> """SELECT * FROM S
      WHERE (SELL as msft; BUY as oracle; BUY as csco; SELL as amat)
      FILTER msft[name = 'MSFT'] AND oracle[name = 'ORCL'] AND
      csco[name = 'CSCO'] AND amat[name = 'AMAT']
      PARTITION BY [volume]
      WITHIN 30000 [stock_time]
      CONSUME BY ANY""",
    "Q4" -> """SELECT * FROM S
      WHERE (SELL as msft; (BUY OR SELL) as oracle; (BUY OR SELL) as csco; SELL as amat)
      FILTER msft[name = 'MSFT'] AND oracle[name = 'ORCL'] AND
      csco[name = 'CSCO'] AND amat[name = 'AMAT']
      WITHIN 30000 [stock_time]""",
    "Q5" -> """SELECT * FROM S
      WHERE (SELL as msft; (BUY OR SELL) as oracle; (BUY OR SELL) as csco; SELL as amat)
      FILTER msft[name = 'MSFT'] AND msft[price > 26.0] AND
      oracle[name = 'ORCL'] AND oracle[price > 11.14] AND
      csco[name = 'CSCO'] AND amat[name = 'AMAT'] AND amat[price >= 18.92]
      WITHIN 30000 [stock_time]""",
    "Q6" -> """SELECT * FROM S
      WHERE (SELL as msft; (BUY OR SELL) as oracle; (BUY OR SELL) as csco; SELL as amat)
      FILTER msft[name = 'MSFT'] AND oracle[name = 'ORCL'] AND
      csco[name = 'CSCO'] AND amat[name = 'AMAT']
      PARTITION BY [volume]
      WITHIN 30000 [stock_time]
      CONSUME BY ANY""",
    // Q7's full text is not in the paper; §6 describes it as
    // SELL; (BUY OR SELL)+; SELL — disjunction under iteration.
    "Q7" -> """SELECT * FROM S
      WHERE (SELL as first; (BUY OR SELL)+ as mid; SELL as last_)
      WITHIN 30000 [stock_time]""",
  )

  def stockQuery(name: String): CeqlQuery =
    repro.core.ceql.CeqlParser.parse(stockQueryTexts(name))

  /** All four systems as (name, engine-factory) pairs. Per the paper's setup,
    * the per-event output limit is 10 except FlinkCEP (1).
    */
  def systems(q: CeqlQuery): Seq[(String, () => StreamEngine)] = Seq(
    "CORE"     -> (() => Engines.core(q, 10)),
    "SASE"     -> (() => Baselines.sase(q, 10)),
    "Esper"    -> (() => Baselines.esper(q, 10)),
    "FlinkCEP" -> (() => Baselines.flink(q, 1)),
  )
}
