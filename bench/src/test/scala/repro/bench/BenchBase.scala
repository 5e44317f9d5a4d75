package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.Measurement

/** Qualitative-shape helpers for the table suites. The tables themselves are
  * defined in [[repro.harness.Tables]]; budgets default to 1 s per
  * measurement (`BENCH_MS` env to change); the paper used 30 s — shapes, not
  * absolute numbers, are asserted.
  */
abstract class BenchBase extends AnyFunSuite {

  protected def thr(ms: Seq[Measurement], system: String, config: String): Double =
    ms.find(m => m.system == system && m.config == config).get.throughput

  /** max/min throughput ratio across configs for one system. */
  protected def spread(ms: Seq[Measurement], system: String): Double = {
    val ts = ms.filter(_.system == system).map(_.throughput)
    ts.max / ts.min
  }
}
