package perfbench

import java.io.{BufferedWriter, FileWriter}

/** In-memory spans for the traced run, recorded by the benchmark around its
  * calls into the program's public functions.
  *
  * A span is (event index, name, start ns, end ns, parent span id); the id of
  * a span is its position in the buffer. All spans of one input event carry
  * that event's index. Per-name totals cover every span; the raw spans are
  * kept for the first `capacity` spans only, and written out when the run
  * ends.
  */
final class Tracer(val names: IndexedSeq[String], capacity: Int) {
  private val evIdx  = new Array[Long](capacity)
  private val name   = new Array[Byte](capacity)
  private val start  = new Array[Long](capacity)
  private val end    = new Array[Long](capacity)
  private val parent = new Array[Int](capacity)
  private var n = 0
  private var dropped = 0L

  val totalNs = new Array[Long](names.length)

  def id(spanName: String): Int = {
    val i = names.indexOf(spanName)
    require(i >= 0, s"unknown span $spanName")
    i
  }

  /** Records a span and returns its id (-1 once the raw buffer is full). */
  def span(ev: Long, nameId: Int, t0: Long, t1: Long, parentId: Int): Int = {
    totalNs(nameId) += t1 - t0
    if (n < capacity) {
      evIdx(n) = ev; name(n) = nameId.toByte; start(n) = t0; end(n) = t1; parent(n) = parentId
      n += 1
      n - 1
    } else { dropped += 1; -1 }
  }

  /** Opens a span whose children are recorded before its end is known. */
  def open(ev: Long, nameId: Int, parentId: Int): Int = span(ev, nameId, 0L, 0L, parentId)

  def close(spanId: Int, nameId: Int, t0: Long, t1: Long): Unit = {
    totalNs(nameId) += t1 - t0
    if (spanId >= 0) { start(spanId) = t0; end(spanId) = t1 }
  }

  /** Writes the raw spans as CSV: id,event,name,start_ns,end_ns,parent. */
  def writeCsv(path: String): Unit = {
    val f = new java.io.File(path)
    f.getParentFile.mkdirs()
    val w = new BufferedWriter(new FileWriter(f))
    try {
      w.write(s"# spans kept=$n dropped=$dropped\n")
      w.write("id,event,name,start_ns,end_ns,parent\n")
      var i = 0
      while (i < n) {
        w.write(s"$i,${evIdx(i)},${names(name(i).toInt)},${start(i)},${end(i)},${parent(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}
