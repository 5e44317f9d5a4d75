package repro.spark

import java.nio.file.Files
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.core.Ev
import repro.core.ceql.{CeqlParser, Consume}
import repro.core.engine.{CoreEngine, Engines}
import repro.core.TestUtil._
import repro.gen.StreamGen
import repro.harness.Workloads

/** CORE as a Structured Streaming stateful operator (flatMapGroupsWithState):
  * partial matches must survive micro-batch boundaries via the serialized
  * engine state, and the result must equal the batch evaluation.
  */
class CoreStreamingSpec extends SparkSpec {

  private def runStreaming(batches: Seq[Seq[Ev]], qname: String): Set[(String, Long, Long, String)] = {
    val spark0 = spark
    import spark0.implicits._
    implicit val sqlCtx = spark0.sqlContext
    val q = Workloads.stockQuery(qname).copy(consume = Consume.None)
    val input = MemoryStream[Ev]
    val matches = CoreStreaming.evaluate(input.toDS(), q)
    val ckpt = Files.createTempDirectory("core-ckpt").toString
    val sq = matches.writeStream
      .format("memory").queryName(s"m_$qname")
      .outputMode("append")
      .option("checkpointLocation", ckpt)
      .start()
    try {
      for (b <- batches) { input.addData(b); sq.processAllAvailable() }
    } finally sq.stop()
    spark0.table(s"m_$qname").as[MatchRow].collect()
      .map(m => (m.partKey, m.start, m.end, m.data)).toSet
  }

  private lazy val stock = StreamGen.stockStream(240)

  test("streaming matches equal batch matches (single partition, Q1)") {
    val batches = stock.grouped(40).map(_.toSeq).toSeq
    val got = runStreaming(batches, "Q1")
    val q = Workloads.stockQuery("Q1").copy(consume = Consume.None)
    val expected = runAll(Engines.core(q), stock)
      .map(ce => ("", ce.start, ce.end, ce.data.mkString(","))).toSet
    assert(got == expected)
    assert(got.nonEmpty || expected.isEmpty)
  }

  test("streaming matches equal batch matches (partition-by, Q3)") {
    val batches = stock.grouped(60).map(_.toSeq).toSeq
    val got = runStreaming(batches, "Q3")
    val q = Workloads.stockQuery("Q3").copy(consume = Consume.None)
    val expected = runAll(Engines.core(q), stock).map { ce =>
      val key = Engines.partKeyFn(Seq("volume"))(stock(ce.start.toInt))
      (key, ce.start, ce.end, ce.data.mkString(","))
    }.toSet
    assert(got == expected)
  }

  test("matches spanning micro-batch boundaries are found") {
    // A at the end of batch 1, B at the start of batch 2 — the partial match
    // must live in the serialized state between batches.
    val spark0 = spark
    import spark0.implicits._
    implicit val sqlCtx = spark0.sqlContext
    val q = CeqlParser.parse("SELECT * FROM S WHERE A1; A2 WITHIN 100 events")
    val input = MemoryStream[Ev]
    val matches = CoreStreaming.evaluate(input.toDS(), q)
    val ckpt = Files.createTempDirectory("core-ckpt2").toString
    val sq = matches.writeStream.format("memory").queryName("m_span")
      .outputMode("append").option("checkpointLocation", ckpt).start()
    try {
      input.addData(Seq(Ev(0, 0, "A1", "", 0, 0), Ev(1, 1, "B1", "", 0, 0)))
      sq.processAllAvailable()
      assert(spark0.table("m_span").count() == 0)
      input.addData(Seq(Ev(2, 2, "A2", "", 0, 0)))
      sq.processAllAvailable()
    } finally sq.stop()
    val got = spark0.table("m_span").as[MatchRow].collect().toSeq
    assert(got.map(m => (m.start, m.end, m.data)) == Seq((0L, 2L, "0,2")))
  }

  test("engine round-trips through java serialization mid-stream") {
    val q = query(repro.core.cel.Cel.seqOfTypes("A", "B"))
    val e1 = Engines.core(q)
    val evs = stream("A", "C", "A")
    evs.foreach(e1.onEvent)
    val e2 = Engines.deserialize(Engines.serialize(e1))
    val out = e2.onEvent(Ev(3, 3, "B", "NB", 30.0, 0.0))
    assert(out.map(ce => (ce.start, ce.data)).toSet ==
      Set((0L, List(0L, 3L)), (2L, List(2L, 3L))))
  }

  test("serialized state size stays bounded under a window") {
    val q = query(repro.core.cel.Cel.seqOfTypes("A", "B", "C"),
      repro.core.ceql.CountWindow(50))
    val e = Engines.core(q)
    val evs = (0 until 2000).map(i => Ev(i, i, if (i % 2 == 0) "A" else "B", "", 0, 0))
    var size1k = 0
    evs.zipWithIndex.foreach { case (ev, i) =>
      e.onEvent(ev)
      if (i == 999) size1k = Engines.serialize(e).length
    }
    val size2k = Engines.serialize(e).length
    // expired tECS nodes must have been dropped: state does not grow with
    // stream length, only with window content
    assert(size2k < size1k * 2, s"state grew: $size1k -> $size2k")
  }
}
