package repro.jobs

import repro.harness.{Harness, Tables => T}

/** Prints one reproduced table (T1–T5, see DESIGN.md §5) as markdown. The
  * engines are single-core, as in the paper §6, so this is a plain JVM main.
  *
  * Usage: spark-submit --class repro.jobs.Tables <jar> <T1..T5> [events] [budgetMs]
  */
object Tables {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty && T.names.contains(args(0)),
      s"usage: Tables <${T.names.mkString("|")}> [events] [budgetMs]")
    val events = args.lift(1).map(_.toInt).getOrElse(T.DefaultEvents)
    val budgetMs = args.lift(2).map(_.toLong).getOrElse(Harness.budgetMs)
    println(T.render(args(0), T.run(args(0), events, budgetMs)))
  }
}
