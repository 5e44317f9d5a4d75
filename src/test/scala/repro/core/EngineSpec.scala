package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Prop.forAll
import repro.core.cel._
import repro.core.ceql._
import repro.core.engine.{BruteForce, CoreEngine, Engines}
import repro.core.pred.{NumCmp, StrEq}
import repro.core.TestUtil._

/** Correctness of Algorithm 1 (CoreEngine) against the exponential reference
  * (BruteForce) and against hand-computed expectations, including the paper's
  * worked example (Fig 1 Q1 / Fig 3).
  */
class EngineSpec extends AnyFunSuite {

  private def coreMatches(q: CeqlQuery, evs: Seq[Ev]): Set[ComplexEvent] =
    runAll(Engines.core(q), evs).toSet

  // ------------------------------------------------------------ basic atoms

  test("single atom matches every event of its type") {
    val q = query(CAtom("A"))
    val evs = stream("A", "B", "A")
    assert(coreMatches(q, evs) ==
      Set(ComplexEvent(0, 0, List(0)), ComplexEvent(2, 2, List(2))))
  }

  test("atom of absent type matches nothing") {
    assert(coreMatches(query(CAtom("Z")), stream("A", "B")).isEmpty)
  }

  test("empty stream matches nothing") {
    assert(coreMatches(query(CAtom("A")), Nil).isEmpty)
  }

  // ------------------------------------------------------------- sequencing

  test("sequence is non-contiguous (gaps allowed)") {
    val q = query(Cel.seqOfTypes("A", "B"))
    val evs = stream("A", "C", "B")
    assert(coreMatches(q, evs) == Set(ComplexEvent(0, 2, List(0, 2))))
  }

  test("sequence skip-till-any-match returns all combinations") {
    val q = query(Cel.seqOfTypes("A", "B"))
    val evs = stream("A", "A", "B", "B")
    assert(coreMatches(q, evs) == Set(
      ComplexEvent(0, 2, List(0, 2)), ComplexEvent(1, 2, List(1, 2)),
      ComplexEvent(0, 3, List(0, 3)), ComplexEvent(1, 3, List(1, 3))))
  }

  test("three-way sequence over A A B B C") {
    val q = query(Cel.seqOfTypes("A", "B", "C"))
    val evs = stream("A", "A", "B", "B", "C")
    assert(coreMatches(q, evs).size == 4)
  }

  // ------------------------------------------------------------ disjunction

  test("disjunction matches either branch") {
    val q = query(COr(CAtom("A"), CAtom("B")))
    val evs = stream("A", "B", "C")
    assert(coreMatches(q, evs) ==
      Set(ComplexEvent(0, 0, List(0)), ComplexEvent(1, 1, List(1))))
  }

  test("disjunction inside sequence") {
    val q = query(Cel.seq(CAtom("A"), COr(CAtom("B"), CAtom("C"))))
    val evs = stream("A", "B", "C")
    assert(coreMatches(q, evs) ==
      Set(ComplexEvent(0, 1, List(0, 1)), ComplexEvent(0, 2, List(0, 2))))
  }

  // -------------------------------------------------------------- iteration

  test("kleene plus: one or more, any subset (skip-till-any-match)") {
    val q = query(Cel.seq(CAtom("A"), CPlus(CAtom("B"))))
    val evs = stream("A", "B", "B")
    // B+ may bind {1}, {2}, or {1,2}
    assert(coreMatches(q, evs) == Set(
      ComplexEvent(0, 1, List(0, 1)),
      ComplexEvent(0, 2, List(0, 2)),
      ComplexEvent(0, 2, List(0, 1, 2))))
  }

  test("kleene plus requires at least one occurrence") {
    val q = query(Cel.seq(CAtom("A"), CPlus(CAtom("B")), CAtom("C")))
    val evs = stream("A", "C")
    assert(coreMatches(q, evs).isEmpty)
  }

  test("kleene with gaps between iterations") {
    val q = query(Cel.seq(CAtom("A"), CPlus(CAtom("B")), CAtom("C")))
    val evs = stream("A", "B", "A", "B", "C")
    // B+ can bind {1}, {3}, or {1,3} — gap across position 2 allowed
    assert(coreMatches(q, evs).map(_.data).contains(List(0, 1, 3, 4)))
    assert(coreMatches(q, evs) == BruteForce.evaluate(query(
      Cel.seq(CAtom("A"), CPlus(CAtom("B")), CAtom("C"))), evs))
  }

  // Expected sets below are written out by hand from the §3 semantics, not
  // computed by BruteForce, which runs the same compiled automaton.

  test("kleene plus iterates more than twice: B+ over B B B B is every non-empty subset") {
    val got = coreMatches(query(CPlus(CAtom("B"))), stream("B", "B", "B", "B"))
    assert(got.map(_.data) == Set[List[Long]](
      List(0), List(1), List(2), List(3),
      List(0, 1), List(0, 2), List(0, 3), List(1, 2), List(1, 3), List(2, 3),
      List(0, 1, 2), List(0, 1, 3), List(0, 2, 3), List(1, 2, 3),
      List(0, 1, 2, 3)))
    assert(got.forall(ce => ce.start == ce.data.head && ce.end == ce.data.last))
  }

  test("kleene plus over a sequence: (A;B)+ over A B A B") {
    val got = coreMatches(query(CPlus(Cel.seqOfTypes("A", "B"))), stream("A", "B", "A", "B"))
    assert(got == Set(
      ComplexEvent(0, 1, List(0, 1)),
      ComplexEvent(0, 3, List(0, 3)),
      ComplexEvent(2, 3, List(2, 3)),
      ComplexEvent(0, 3, List(0, 1, 2, 3))))
  }

  // ---------------------------------------------------------------- filters

  test("filter restricts bound variable") {
    val q = query(CFilter(CAs(CAtom("A"), "x"), "x", NumCmp("price", ">", 5.0)))
    val evs = stream("A", "A") // prices 0 and 10
    assert(coreMatches(q, evs) == Set(ComplexEvent(1, 1, List(1))))
  }

  test("filter on string attribute") {
    val q = query(CFilter(CAs(CAtom("A"), "x"), "x", StrEq("name", "NA")))
    val evs = stream("A", "B")
    assert(coreMatches(q, evs) == Set(ComplexEvent(0, 0, List(0))))
  }

  // ------------------------------------------------------------- projection

  test("projection drops unselected variables from data but keeps interval") {
    // SELECT b: π_{b}(A; B as b)
    val q = query(CProj(Cel.seq(CAtom("A"), CAs(CAtom("B"), "b")), Set("b")))
    val evs = stream("A", "B")
    assert(coreMatches(q, evs) == Set(ComplexEvent(0, 1, List(1))))
  }

  // ---------------------------------------------------------------- windows

  test("count window excludes too-long matches") {
    val q = query(Cel.seqOfTypes("A", "B"), CountWindow(2))
    val evs = stream("A", "C", "C", "B") // span 3 > 2
    assert(coreMatches(q, evs).isEmpty)
    val evs2 = stream("A", "C", "B") // span 2
    assert(coreMatches(q, evs2) == Set(ComplexEvent(0, 2, List(0, 2))))
  }

  test("time window over ts") {
    val q = query(Cel.seqOfTypes("A", "B"), TimeWindow(500))
    val evs = IndexedSeq(
      Ev(0, 0, "A", "", 0, 0), Ev(1, 400, "B", "", 0, 0), Ev(2, 900, "B", "", 0, 0))
    assert(coreMatches(q, evs) == Set(ComplexEvent(0, 1, List(0, 1))))
  }

  test("expired partial matches are pruned but valid ones survive") {
    val q = query(Cel.seqOfTypes("A", "B"), CountWindow(3))
    val evs = stream("A", "C", "A", "C", "C", "B") // only A@2 within 3 of B@5
    assert(coreMatches(q, evs) == Set(ComplexEvent(2, 5, List(2, 5))))
  }

  // --------------------------------------------------- worked example (Fig 1/3)

  test("paper Q1 (Fig 1) over a stock stream") {
    // SELL as msft [name=MSFT, price>100] ; SELL as intel [name=INTC] ;
    // SELL as amzn [name=AMZN, price<2000]
    val pat =
      CFilter(CFilter(CFilter(CFilter(CFilter(
        Cel.seq(CAs(CAtom("SELL"), "msft"), CAs(CAtom("SELL"), "intel"), CAs(CAtom("SELL"), "amzn")),
        "msft", StrEq("name", "MSFT")), "msft", NumCmp("price", ">", 100.0)),
        "intel", StrEq("name", "INTC")),
        "amzn", StrEq("name", "AMZN")), "amzn", NumCmp("price", "<", 2000.0))
    def ev(i: Int, t: String, nm: String, p: Double) = Ev(i, i, t, nm, p, 0)
    val evs = IndexedSeq(
      ev(0, "SELL", "MSFT", 101.0), ev(1, "BUY", "INTC", 80.0), ev(2, "SELL", "INTC", 80.0),
      ev(3, "SELL", "MSFT", 102.0), ev(4, "SELL", "INTC", 81.0), ev(5, "SELL", "AMZN", 1900.0),
      ev(6, "SELL", "AMZN", 2100.0))
    val got = coreMatches(query(pat), evs)
    val expected = Set(
      ComplexEvent(0, 5, List(0, 2, 5)), ComplexEvent(0, 5, List(0, 4, 5)),
      ComplexEvent(3, 5, List(3, 4, 5)))
    assert(got == expected)
    assert(got == BruteForce.evaluate(query(pat), evs))
  }

  // ----------------------------------------------- duplicates & enumeration

  test("no duplicate complex events are enumerated") {
    // ambiguous formula: (A OR A); A produces the same complex events via
    // distinct derivations — the engine must still be duplicate-free
    val q = query(Cel.seq(COr(CAtom("A"), CAtom("A")), CAtom("A")))
    val evs = stream("A", "A", "A")
    val list = runAll(Engines.core(q), evs)
    assert(list.size == list.toSet.size)
    assert(list.toSet == BruteForce.evaluate(q, evs))
  }

  test("per-event output limit caps enumeration") {
    val q = query(Cel.seqOfTypes("A", "B"))
    val evs = stream("A", "A", "A", "A", "B")
    val list = runAll(Engines.core(q, limit = 2), evs)
    assert(list.size == 2)
  }

  test("limit 0 suppresses all output but engine still runs") {
    val q = query(Cel.seqOfTypes("A", "B"))
    val evs = stream("A", "B", "A", "B")
    assert(runAll(Engines.core(q, limit = 0), evs).isEmpty)
  }

  // ------------------------------------------------------------ consumption

  test("consume-by-any forgets partial matches after a match") {
    val q = query(Cel.seqOfTypes("A", "B"), consume = Consume.Any)
    val evs = stream("A", "A", "B", "B")
    // at j=2: matches (0,2) and (1,2); state cleared; at j=3: nothing (no A after)
    val got = runAll(Engines.core(q), evs).toSet
    assert(got == Set(ComplexEvent(0, 2, List(0, 2)), ComplexEvent(1, 2, List(1, 2))))
  }

  test("consume-by-any fires even when limit 0 suppresses enumeration") {
    val q = query(Cel.seqOfTypes("A", "B"), consume = Consume.Any)
    val evs = stream("A", "B", "B")
    val e = Engines.core(q, limit = 0).asInstanceOf[CoreEngine]
    evs.foreach(e.onEvent)
    assert(e.activeStates <= 1) // only possibly the state created by the last B
  }

  // ------------------------------------------------------------ partition-by

  test("partition-by separates substreams") {
    val q = query(Cel.seqOfTypes("A", "B"), partitionBy = Seq("volume"))
    // volumes cycle 0,100,200 (i%3): A@0 vol 0, B@1 vol 100, B@3 vol 0
    val evs = stream("A", "B", "C", "B")
    val got = coreMatches(q, evs)
    assert(got == Set(ComplexEvent(0, 3, List(0, 3))))
    assert(got == BruteForce.evaluate(q, evs))
  }

  test("partition-by with name attribute") {
    val q = query(Cel.seqOfTypes("A", "A"), partitionBy = Seq("name"))
    val evs = stream("A", "A", "A")
    // all same name NA → all pairs
    assert(coreMatches(q, evs).size == 3)
  }

  // --------------------------------------------------------- property tests

  test("property: engine = brute force on random formulas and streams") {
    check(forAll(genCel(3), genStream, genWindow) { (f, evs, w) =>
      val q = query(f, w)
      coreMatches(q, evs) == BruteForce.evaluate(q, evs)
    })
  }

  test("property: engine = brute force with partition-by") {
    check(forAll(genCel(2), genStream) { (f, evs) =>
      val q = query(f, CountWindow(6), partitionBy = Seq("volume"))
      coreMatches(q, evs) == BruteForce.evaluate(q, evs)
    })
  }

  test("property: matches are reported at their end position") {
    check(forAll(genCel(2), genStream) { (f, evs) =>
      val engine = Engines.core(query(f))
      evs.zipWithIndex.forall { case (ev, i) =>
        engine.onEvent(ev).forall(_.end == i.toLong)
      }
    })
  }

  test("property: all matches respect the window") {
    check(forAll(genCel(2), genStream, genWindow) { (f, evs, w) =>
      coreMatches(query(f, w), evs).forall(ce => ce.end - ce.start <= w.epsilon)
    })
  }

  // ---------------------------------------------------------------- stability

  test("engine state stays bounded on a no-match stream (window pruning)") {
    val q = query(Cel.seqOfTypes("A", "B", "C"), CountWindow(50), consume = Consume.Any)
    val e = Engines.core(q, limit = 10).asInstanceOf[CoreEngine]
    val evs = (0 until 5000).map(i => Ev(i, i, if (i % 2 == 0) "A" else "B", "", 0, 0))
    evs.foreach(e.onEvent)
    // det states are few; active states bounded by det-state count
    assert(e.activeStates <= e.det.numDetStates)
    assert(e.det.numDetStates < 64)
  }
}
