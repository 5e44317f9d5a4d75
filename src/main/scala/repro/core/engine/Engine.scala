package repro.core.engine

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import repro.core.{ComplexEvent, Ev}
import repro.core.cea.{Compiler, Determinizer}
import repro.core.ceql._
import repro.core.pred.Attr
import repro.core.tecs._
import scala.collection.mutable

/** Common interface of all engines (CORE + the three baselines): push one
  * event, get the complex events recognized at that position (up to the
  * configured per-event output limit).
  */
trait StreamEngine extends Serializable {
  def onEvent(ev: Ev): List[ComplexEvent]
  /** Cumulative nanoseconds spent enumerating outputs (for the Fig-7 split
    * into update vs enumeration throughput). */
  def enumNanos: Long
  def reset(): Unit
}

/** CORE's evaluation algorithm (Algorithm 1, §5.3) over an I/O-determinized
  * CEA, maintaining a tECS and an insertion-ordered table of active states.
  *
  * - `window` gives ε and whether start values are positions or timestamps.
  * - `strategy`: ALL is the paper's algorithm; NEXT/LAST retain a single run
  *   per active state (earliest-/latest-start); MAX adds a maximality filter
  *   at enumeration (see DESIGN.md §3).
  * - `consume = Any`: forget all partial matches when a match fires (§6 setup).
  * - `limit`: max complex events enumerated per input event (§6 uses 10);
  *   `limit = 0` measures pure update throughput; `limit < 0` = unlimited.
  */
final class CoreEngine(
    val det: Determinizer,
    window: Window,
    strategy: Strategy = Strategy.All,
    consume: Consume = Consume.None,
    limit: Int = -1,
) extends StreamEngine {

  /** Active det-states → union-lists, in insertion order (ordered-keys(T)).
    * Transient: the tECS DAG can be thousands of links deep, so default
    * recursive Java serialization would overflow the stack — writeObject /
    * readObject below flatten it iteratively instead.
    */
  @transient private var t = new java.util.LinkedHashMap[Int, UnionList]()
  private var enumNs = 0L

  def enumNanos: Long = enumNs
  def activeStates: Int = t.size()
  def reset(): Unit = { t = new java.util.LinkedHashMap[Int, UnionList](); enumNs = 0L }

  /** Test hook: the active union-lists in insertion order. */
  def unionListsForTest: Seq[UnionList] = {
    val b = Seq.newBuilder[UnionList]
    t.values().forEach(ul => b += ul)
    b.result()
  }

  // ------------------------------------------------- custom serialization
  // The tECS is a DAG whose longest path grows with the in-window content;
  // default Java serialization recurses per edge and overflows the stack.
  // We flatten reachable nodes in children-first order iteratively, write
  // them as (kind, payload, child-index) records, and rebuild on read.

  private def writeObject(out: java.io.ObjectOutputStream): Unit = {
    out.defaultWriteObject()
    val index = new java.util.IdentityHashMap[Node, Integer]()
    val order = new scala.collection.mutable.ArrayBuffer[Node]()
    val stack = new scala.collection.mutable.ArrayDeque[(Node, Boolean)]()
    val roots = new scala.collection.mutable.ArrayBuffer[(Int, Seq[Node])]()
    t.entrySet().forEach(e => roots += ((e.getKey, e.getValue.toSeq)))
    for ((_, ns) <- roots; n <- ns) stack.prepend((n, false))
    while (stack.nonEmpty) {
      val (n, expanded) = stack.removeHead()
      if (expanded) {
        if (!index.containsKey(n)) { index.put(n, order.size); order += n }
      } else if (!index.containsKey(n)) {
        stack.prepend((n, true))
        n match {
          case u: Union  => stack.prepend((u.left, false)); stack.prepend((u.right, false))
          case o: Output => stack.prepend((o.next, false))
          case _: Bottom => ()
        }
      }
    }
    out.writeInt(order.size)
    for (n <- order) n match {
      case b: Bottom => out.writeByte(0); out.writeLong(b.pos); out.writeLong(b.max)
      case o: Output => out.writeByte(1); out.writeLong(o.pos); out.writeInt(index.get(o.next))
      case u: Union  => out.writeByte(2); out.writeInt(index.get(u.left)); out.writeInt(index.get(u.right))
    }
    out.writeInt(roots.size)
    for ((state, ns) <- roots) {
      out.writeInt(state); out.writeInt(ns.size)
      ns.foreach(n => out.writeInt(index.get(n)))
    }
  }

  private def readObject(in: java.io.ObjectInputStream): Unit = {
    in.defaultReadObject()
    val nNodes = in.readInt()
    val nodes = new Array[Node](nNodes)
    var i = 0
    while (i < nNodes) {
      nodes(i) = (in.readByte(): @unchecked) match {
        case 0 => new Bottom(in.readLong(), in.readLong())
        case 1 => new Output(in.readLong(), nodes(in.readInt()))
        case 2 => new Union(nodes(in.readInt()), nodes(in.readInt()))
      }
      i += 1
    }
    t = new java.util.LinkedHashMap[Int, UnionList]()
    val nStates = in.readInt()
    var s = 0
    while (s < nStates) {
      val state = in.readInt()
      val len = in.readInt()
      val ns = (0 until len).map(_ => nodes(in.readInt()))
      t.put(state, UnionList.unsafeFromNodes(ns))
      s += 1
    }
  }

  def onEvent(ev: Ev): List[ComplexEvent] = {
    val j = ev.idx
    val now = if (window.countBased) ev.idx else ev.ts
    val tau = now - window.epsilon
    val v = det.bits(ev)
    val tNew = new java.util.LinkedHashMap[Int, UnionList]()

    // Lines 7–8: a run may start at the current position.
    execTrans(det.initial, UnionList.single(Tecs.newBottom(j, now)), v, j, tNew)

    // Lines 9–10: extend runs of states active at j-1, in insertion order
    // (which the appendix proves is decreasing max-start order).
    val it = t.entrySet().iterator()
    while (it.hasNext) {
      val e = it.next()
      val ul = e.getValue
      if (ul.maxStart >= tau) { // expired states can never produce a match again
        ul.pruneExpired(tau)
        execTrans(e.getKey, ul, v, j, tNew)
      }
    }
    t = tNew

    output(j, tau)
  }

  /** ExecTrans (Algorithm 1 lines 13–20). */
  private def execTrans(p: Int, ul: UnionList, v: scala.collection.immutable.BitSet,
                        j: Long, tNew: java.util.LinkedHashMap[Int, UnionList]): Unit = {
    val (qm, qu) = det.step(p, v)
    if (qm < 0 && qu < 0) return
    val n = ul.merge()
    if (qm >= 0) {
      val np = Tecs.extend(n, j)
      add(tNew, qm, np, UnionList.single(np))
    }
    if (qu >= 0) add(tNew, qu, n, ul)
  }

  /** Add (Algorithm 1 lines 22–27), with the NEXT/LAST retention variants. */
  private def add(tNew: java.util.LinkedHashMap[Int, UnionList], q: Int,
                  n: Node, ul: => UnionList): Unit = strategy match {
    case Strategy.All | Strategy.Max =>
      val existing = tNew.get(q)
      if (existing != null) existing.insert(n) else tNew.put(q, ul)
    case Strategy.Last => // latest start wins: states are processed in decreasing
      if (!tNew.containsKey(q)) tNew.put(q, ul) // max-start order, so the first add wins
    case Strategy.Next => // earliest start wins: the last add wins
      tNew.put(q, ul)
  }

  /** Output (Algorithm 1 lines 29–33): enumerate matches at final states. */
  private def output(j: Long, tau: Long): List[ComplexEvent] = {
    var found = List.empty[ComplexEvent]
    var anyFinal = false
    val it = t.entrySet().iterator()
    while (it.hasNext) {
      val e = it.next()
      if (det.isFinal(e.getKey)) {
        anyFinal = true
        val remaining = if (limit < 0) -1 else limit - found.size
        if (limit < 0 || remaining > 0) {
          val t0 = System.nanoTime()
          val n = e.getValue.merge()
          found = found ++ Enumerator.enumerate(n, j, tau, remaining)
          enumNs += System.nanoTime() - t0
        }
      }
    }
    if (strategy == Strategy.Max && found.nonEmpty) found = Engines.maximalOnly(found)
    // Consumption policy: forget every partial match once a complex event is
    // recognized. A final state was reached even if limit = 0 suppressed the
    // enumeration, so we key on reaching a final state, not on emitted output.
    if (consume == Consume.Any && anyFinal)
      t = new java.util.LinkedHashMap[Int, UnionList]()
    found
  }
}

/** Runs one engine instance per partition-by key (§5.4): the stream is hashed
  * on the PARTITION BY attributes and each substream gets its own run.
  */
final class PartitionedEngine(mk: () => StreamEngine, keyFn: Ev => String) extends StreamEngine {
  private val engines = mutable.HashMap.empty[String, StreamEngine]
  def onEvent(ev: Ev): List[ComplexEvent] = engines.getOrElseUpdate(keyFn(ev), mk()).onEvent(ev)
  def enumNanos: Long = engines.valuesIterator.map(_.enumNanos).sum
  def numPartitions: Int = engines.size
  def reset(): Unit = engines.clear()
}

/** Engine factories. */
object Engines {

  /** Partition key: values of the PARTITION BY attributes, joined. */
  def partKeyFn(attrs: Seq[String]): Ev => String =
    ev => attrs.map(a => Attr.str(ev, a)).mkString("|")

  /** Build the CORE engine (with partition-by wrapper if the query has one).
    * The compiled automaton and determinization cache are shared across
    * partitions, as in the paper.
    */
  def core(q: CeqlQuery, limit: Int = -1): StreamEngine = {
    val (cea, reg) = Compiler.compile(q.pattern)
    val det = new Determinizer(cea, reg)
    coreFromDet(det, q, limit)
  }

  def coreFromDet(det: Determinizer, q: CeqlQuery, limit: Int): StreamEngine =
    partitioned(q, () => new CoreEngine(det, q.within, q.strategy, q.consume, limit))

  /** One engine from `mk` per PARTITION BY key, or a single one if the query
    * has no PARTITION BY. */
  def partitioned(q: CeqlQuery, mk: () => StreamEngine): StreamEngine =
    if (q.partitionBy.nonEmpty) new PartitionedEngine(mk, partKeyFn(q.partitionBy)) else mk()

  /** The one encoder for engine state: Java serialization of the whole
    * engine. Spark's per-key streaming state and the measured state size
    * both use it. */
  def serialize(engine: StreamEngine): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(engine); oos.close()
    bos.toByteArray
  }

  def deserialize(bytes: Array[Byte]): StreamEngine = {
    val ois = new ObjectInputStream(new ByteArrayInputStream(bytes))
    try ois.readObject().asInstanceOf[StreamEngine] finally ois.close()
  }

  /** Keep only set-inclusion-maximal complex events (MAX strategy filter). */
  def maximalOnly(ms: List[ComplexEvent]): List[ComplexEvent] = {
    val sets = ms.map(_.data.toSet)
    ms.zipWithIndex.filter { case (_, i) =>
      !sets.zipWithIndex.exists { case (s, k) => k != i && sets(i).subsetOf(s) && s != sets(i) }
    }.map(_._1)
  }
}
