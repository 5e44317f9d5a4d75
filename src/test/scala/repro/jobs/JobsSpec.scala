package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** The `Tables` main is the spark-submit entrypoint for every reproduced
  * table; run each table with a tiny stream and budget to keep it from rotting.
  */
class JobsSpec extends AnyFunSuite {

  private def run(table: String): Unit = Tables.main(Array(table, "20000", "60")) // 20k events, 60 ms budget

  test("Table1SeqWithOutput runs") { run("T1") }
  test("Table2SeqNoOutput runs") { run("T2") }
  test("Table3Selection runs") { run("T3") }
  test("Table4Operators runs") { run("T4") }
  test("Table5Stock runs") { run("T5") }
}
