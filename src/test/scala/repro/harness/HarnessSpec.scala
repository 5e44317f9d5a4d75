package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.core.engine.Engines
import repro.gen.StreamGen

/** The measurement harness itself: budget handling, stream exhaustion,
  * derived throughputs, table rendering.
  */
class HarnessSpec extends AnyFunSuite {

  private val q = Workloads.seqQuery(3, 50)
  private val evs = StreamGen.randomStream(20000, Workloads.seqTypes(3))

  test("measure processes the whole stream if the budget allows") {
    val m = Harness.measure("core", "t", Engines.core(q, 10), evs.take(500).iterator, budgetMs = 10000)
    assert(m.events == 500)
    assert(m.seconds > 0)
  }

  test("measure stops at the wall-clock budget") {
    val slowStream = StreamGen.cycled(evs, Long.MaxValue / 2) // effectively infinite
    val m = Harness.measure("core", "t", Engines.core(q, 10), slowStream, budgetMs = 150)
    assert(m.seconds < 5.0) // stopped well before the infinite stream ended
    assert(m.events > 0)
  }

  test("throughput fields are consistent") {
    val m = Measurement("s", "c", events = 1000, matches = 10, seconds = 2.0,
      enumSeconds = 0.5, stateKB = 0)
    assert(m.throughput == 500.0)
    assert(math.abs(m.updateThroughput - 1000 / 1.5) < 1e-9)
    assert(m.enumThroughput == 20.0)
  }

  test("zero matches gives zero enum throughput") {
    val m = Measurement("s", "c", 100, 0, 1.0, 0.0, 0)
    assert(m.enumThroughput == 0.0)
  }

  test("table renders all requested columns") {
    val m = Measurement("core", "n=3", 100, 5, 1.0, 0.1, 42.0)
    val basic = Harness.table("T", Seq(m))
    assert(basic.contains("| core | n=3 | 100 | 5 |"))
    val full = Harness.table("T", Seq(m), fig7 = true)
    assert(full.contains("update e/s") && full.contains("peak state KB"))
    assert(full.contains("42.0"))
  }

  test("matches are counted") {
    val m = Harness.measure("core", "t", Engines.core(q, 10), evs.iterator, budgetMs = 2000)
    assert(m.matches > 0) // A1;A2;A3 fires on this stream
  }
}
