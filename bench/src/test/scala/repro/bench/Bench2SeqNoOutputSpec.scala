package repro.bench

import repro.harness.Tables

/** T2 (Fig 8 left): A1;A2;A3 where A3 never occurs — systems accumulate
  * partial matches but never fire; windows T ∈ {50,100,150,200} events.
  *
  * Paper shapes: CORE flat across T and 1–3 OOM above the others; baselines
  * degrade super-linearly in T (SASE worst: 3800× at T=200).
  */
class Bench2SeqNoOutputSpec extends BenchBase {

  test("T2: sequence query without output") {
    val ms = Tables.t2()
    println(Tables.render("T2", ms))

    // (1) CORE is flat in the window size.
    assert(spread(ms, "CORE") < 4.0, s"CORE not flat: ${spread(ms, "CORE")}")
    // (2) Every baseline degrades as T grows.
    for (sys <- Seq("SASE", "Esper", "FlinkCEP")) {
      val drop = thr(ms, sys, "T=50") / thr(ms, sys, "T=200")
      assert(drop > 1.5, s"$sys did not degrade with T (drop=$drop)")
    }
    // (3) CORE is ahead of every baseline at every window, and by a wide
    //     margin at T=200.
    for (sys <- Seq("SASE", "Esper", "FlinkCEP"); t <- Seq(50L, 100L, 150L, 200L))
      assert(thr(ms, "CORE", s"T=$t") > thr(ms, sys, s"T=$t"), s"CORE not ahead of $sys at T=$t")
    for (sys <- Seq("SASE", "Esper", "FlinkCEP"))
      assert(thr(ms, "CORE", "T=200") > 3 * thr(ms, sys, "T=200"),
        s"CORE margin too small over $sys at T=200")
  }
}
