package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.Ev
import repro.gen.StreamGen

/** Spark-side event-stream datasets for the CER domain (see DESIGN.md §3
  * for the dataset substitutions).
  *
  * Two flavours:
  *  - `fromArray` lifts the deterministic JVM generators — used by tests so
  *    the DuckDB oracle and the engines see byte-identical input;
  *  - distributed `rand(seed)`-based generators for larger jobs.
  */
object SparkStreams {

  /** Deterministic dataset from a JVM-generated stream. */
  def fromArray(spark: SparkSession, evs: Array[Ev]): Dataset[Ev] = {
    import spark.implicits._
    spark.createDataset(evs.toIndexedSeq)
  }

  /** Distributed RandomStream of §6: `types` plus B1..B6 noise, uniform. */
  def randomStream(spark: SparkSession, n: Long, types: Seq[String],
                   noise: Int = 6, seed: Long = 7): Dataset[Ev] = {
    import spark.implicits._
    val all = types ++ (1 to noise).map(i => s"B$i")
    val typeArr = array(all.map(lit): _*)
    spark.range(n).select(
      col("id") as "idx",
      col("id") as "ts",
      element_at(typeArr, (rand(seed) * all.size + 1).cast(IntegerType)) as "etype",
      lit("") as "name",
      lit(0.0) as "price",
      lit(0.0) as "volume",
    ).as[Ev]
  }

  /** Distributed synthetic stock stream (same distributions as
    * [[StreamGen.stockStream]]).
    */
  def stockStream(spark: SparkSession, n: Long, seed: Long = 11,
                  nVolumes: Int = 50, tsStepMs: Long = 300): Dataset[Ev] = {
    import spark.implicits._
    val names = array(StreamGen.StockNames.map(lit): _*)
    spark.range(n).select(
      col("id") as "idx",
      (col("id") * tsStepMs) as "ts",
      element_at(array(lit("BUY"), lit("SELL")), (rand(seed) * 2 + 1).cast(IntegerType)) as "etype",
      element_at(names, (rand(seed + 1) * StreamGen.StockNames.length + 1).cast(IntegerType)) as "name",
      round(pow(lit(10.0), rand(seed + 2) * 2.0), 2) as "price",
      (((rand(seed + 3) * nVolumes).cast(IntegerType) + 1) * 100).cast(DoubleType) as "volume",
    ).as[Ev]
  }
}
