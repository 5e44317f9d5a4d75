package perfbench

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import repro.core.{ComplexEvent, Ev}
import repro.core.cea.Determinizer
import repro.core.ceql.CeqlQuery
import repro.core.engine.{CoreEngine, Engines}
import repro.core.tecs.{Bottom, Node, Output, Union}
import scala.collection.mutable

/** One `CoreEngine` per (query, PARTITION BY key), built with
  * `Engines.core(q.copy(partitionBy = Nil))` and routed by `Engines.partKeyFn`
  * — the per-key engines that `CoreStreaming` keeps as Java-serialized state.
  *
  * The benchmark drives this copy in an untimed pass: it gives the `state`
  * layer's numbers from outside Spark, the `tecs` counters (which a
  * `PartitionedEngine` does not expose), and a second run whose outputs must
  * reproduce the timed run's digest.
  */
final class KeyedEngines(queries: IndexedSeq[CeqlQuery], limit: Int) {
  private val keyFns: IndexedSeq[Option[Ev => String]] =
    queries.map(q => if (q.partitionBy.nonEmpty) Some(Engines.partKeyFn(q.partitionBy)) else None)
  private val perKey = queries.map(q => (q.copy(partitionBy = Nil), mutable.LinkedHashMap.empty[String, CoreEngine]))

  private def engineFor(qi: Int, ev: Ev): (String, CoreEngine) = {
    val key = keyFns(qi).fold("")(_(ev))
    val (q, m) = perKey(qi)
    key -> m.getOrElseUpdate(key, Engines.core(q, limit) match {
      case c: CoreEngine => c
      case other => throw new IllegalStateException(s"expected a CoreEngine, got ${other.getClass}")
    })
  }

  /** Feeds `ev` to its engine of every query; returns per-query outputs with the key. */
  def onEvent(ev: Ev): IndexedSeq[(String, List[ComplexEvent])] =
    queries.indices.map { qi =>
      val (key, e) = engineFor(qi, ev)
      key -> e.onEvent(ev)
    }

  def engines: Iterable[CoreEngine] = perKey.flatMap(_._2.values)
  def numKeys: Int = perKey.map(_._2.size).sum
  def activeStates: Long = engines.iterator.map(_.activeStates.toLong).sum
}

object KeyedEngines {

  /** The bytes `CoreStreaming` stores for one key: the Java-serialized engine. */
  def encode(e: CoreEngine): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(e); oos.close()
    bos.toByteArray
  }

  def decode(bytes: Array[Byte]): CoreEngine = {
    val ois = new ObjectInputStream(new ByteArrayInputStream(bytes))
    try ois.readObject().asInstanceOf[CoreEngine] finally ois.close()
  }

  /** Distinct tECS nodes reachable from the engine's active union-lists. */
  def reachableNodes(e: CoreEngine): Long = {
    val seen = new java.util.IdentityHashMap[Node, java.lang.Boolean]()
    val stack = new java.util.ArrayDeque[Node]()
    e.unionListsForTest.foreach(_.toSeq.foreach(n => stack.push(n)))
    while (!stack.isEmpty) {
      val n = stack.pop()
      if (seen.put(n, java.lang.Boolean.TRUE) == null) n match {
        case u: Union  => stack.push(u.left); stack.push(u.right)
        case o: Output => stack.push(o.next)
        case _: Bottom => ()
      }
    }
    seen.size.toLong
  }
}

/** Result of the untimed state pass. */
final case class StateResult(
    digest: Digest,
    peakKb: Double,
    growth: Double,
    bytesPerKey: Double,
    encodeUs: Double,
    decodeUs: Double,
    activeStatesMean: Double,
    ulistLenMean: Double,
    ulistLenMax: Long,
    reachableNodes: Long,
    keys: Int,
    /** The determinizer of every per-key engine (each key holds its own). */
    dets: Seq[Determinizer],
) {
  /** The per-layer figures every workload takes from its state pass. */
  def report(r: Report): Unit = {
    r.note(f"state: $keys per-key engines, peak $peakKb%.1f KB, end/10%% = $growth%.2f")
    r.layer("engine.active_states_mean", activeStatesMean, "count")
    r.layer("tecs.ulist_len_mean", ulistLenMean, "count")
    r.layer("tecs.ulist_len_max", ulistLenMax.toDouble, "count")
    r.layer("tecs.reachable_nodes", reachableNodes.toDouble, "count")
    r.layer("tecs.state_growth", growth, "ratio")
    r.layer("state.bytes_per_key", bytesPerKey, "B")
    r.layer("state.encode_us", encodeUs, "us")
    r.layer("state.decode_us", decodeUs, "us")
  }
}

/** Order-sensitive digest (count + hash) of the complex events a run emits. */
final class Digest {
  var count = 0L
  var hash = 17L
  def add(tag: Int, out: List[ComplexEvent]): Unit = {
    count += out.size
    hash = hash * 1000003L + tag * 31L + out.hashCode
  }
  def same(o: Digest): Boolean = count == o.count && hash == o.hash
  override def toString: String = f"$count outputs, hash ${hash}%016x"
}

object StatePass {

  /** Number of fixed sample positions (every tenth of the pass). */
  val Samples = 10

  /** Drives `keyed` over `evs`, sampling the serialized state of every key at
    * each tenth of the pass and the active-state table every 16 events.
    */
  def run(keyed: KeyedEngines, evs: Array[Ev],
          onOutput: (Int, String, List[ComplexEvent]) => Unit = (_, _, _) => ()): StateResult = {
    val digest = new Digest
    val totals = new Array[Long](Samples)
    val encNs, decNs = mutable.ArrayBuffer.empty[Double]
    var activeSum, activeSamples = 0L
    var ulSum, ulCount, ulMax = 0L
    var lastBytesPerKey = 0.0
    var sample = 0
    var i = 0
    while (i < evs.length) {
      val outs = keyed.onEvent(evs(i))
      var qi = 0
      while (qi < outs.length) {
        val (key, out) = outs(qi)
        if (out.nonEmpty) { digest.add(qi, out); onOutput(qi, key, out) }
        qi += 1
      }
      if ((i & 15) == 0) {
        activeSum += keyed.activeStates; activeSamples += 1
        keyed.engines.foreach(_.unionListsForTest.foreach { ul =>
          ulSum += ul.size; ulCount += 1; ulMax = math.max(ulMax, ul.size.toLong)
        })
      }
      if (sample < Samples && i + 1 == (evs.length.toLong * (sample + 1) / Samples).toInt) {
        var total = 0L
        keyed.engines.foreach { e =>
          val t0 = System.nanoTime()
          val bytes = KeyedEngines.encode(e)
          val t1 = System.nanoTime()
          KeyedEngines.decode(bytes)
          val t2 = System.nanoTime()
          encNs += (t1 - t0).toDouble; decNs += (t2 - t1).toDouble
          total += bytes.length
        }
        totals(sample) = total
        lastBytesPerKey = total.toDouble / math.max(1, keyed.numKeys)
        sample += 1
      }
      i += 1
    }
    StateResult(
      digest = digest,
      peakKb = totals.max / 1024.0,
      growth = if (totals(0) == 0) 0.0 else totals(Samples - 1).toDouble / totals(0),
      bytesPerKey = lastBytesPerKey,
      encodeUs = Stats.median(encNs.toSeq) / 1000.0,
      decodeUs = Stats.median(decNs.toSeq) / 1000.0,
      activeStatesMean = if (activeSamples == 0) 0.0 else activeSum.toDouble / activeSamples,
      ulistLenMean = if (ulCount == 0) 0.0 else ulSum.toDouble / ulCount,
      ulistLenMax = ulMax,
      reachableNodes = keyed.engines.iterator.map(KeyedEngines.reachableNodes).sum,
      keys = keyed.numKeys,
      dets = keyed.engines.map(_.det).toSeq,
    )
  }
}
