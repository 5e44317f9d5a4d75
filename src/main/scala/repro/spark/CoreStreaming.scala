package repro.spark

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.Ev
import repro.core.ceql.CeqlQuery
import repro.core.engine.{Engines, StreamEngine}

/** CORE as a Structured Streaming stateful operator.
  *
  * The PARTITION BY clause maps to the grouping key of
  * `flatMapGroupsWithState`; the per-key state is the *serialized engine* —
  * determinization cache, active-state table, and the reachable part of the
  * tECS — so partial matches survive across micro-batches and each event is
  * still processed once (the Algorithm-1 incremental guarantee carries over;
  * nothing is recomputed from a buffer).
  *
  * Events must arrive in `idx` order per key across micro-batches (CER streams
  * are ordered; within a batch we sort by idx).
  */
object CoreStreaming {

  def evaluate(events: Dataset[Ev], q: CeqlQuery, limit: Int = -1): Dataset[MatchRow] = {
    val spark = events.sparkSession
    import spark.implicits._
    val (groups, perGroup) = CoreBatch.grouped(events, q)
    groups.flatMapGroupsWithState[Array[Byte], MatchRow](OutputMode.Append, GroupStateTimeout.NoTimeout) {
      (key: String, it: Iterator[Ev], state: GroupState[Array[Byte]]) =>
        val engine: StreamEngine =
          state.getOption.map(Engines.deserialize).getOrElse(Engines.core(perGroup, limit))
        val out = CoreBatch.matches(engine, key, it).toVector
        state.update(Engines.serialize(engine))
        out.iterator
    }
  }
}
