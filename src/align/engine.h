// AlignmentEngine: multi-threaded alignment of one sample with progress
// callbacks and cooperative abort — the hook the paper's early-stopping
// optimization attaches to.
//
// Every non-sharded run executes one body: the engine's pool workers each
// pull the next batch from the run's BatchSource (source calls serialized
// under one mutex) into a recycled batch slot, align it, and commit slots
// strictly in stream order. Merges, progress checkpoints, SAM writes and
// the abort decision therefore land on the same read counts for every
// thread count and machine load.
//
// The engine is built for reuse across samples: its worker thread pool,
// per-worker AlignWorkspaces and batch slots are created on the first run
// and kept for the engine's lifetime, so a 1000-sample campaign pays
// thread spawn and scratch allocation once, not per sample (the compute
// analog of STAR's --genomeLoad LoadAndKeep).
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "align/aligner.h"
#include "align/gene_counts.h"
#include "align/junctions.h"
#include "align/params.h"
#include "align/progress.h"
#include "align/record.h"
#include "align/workspace.h"
#include "common/thread_pool.h"
#include "genome/annotation.h"
#include "index/genome_index.h"
#include "io/fastq.h"
#include "io/read_batch.h"

namespace staratlas {

struct EngineRunRequest;  // align/run_request.h

enum class EngineCommand { kContinue, kAbort };

/// Invoked (serialized, in stream order) at the first batch commit at or
/// past each multiple of `progress_check_interval` reads. Returning kAbort
/// ends the run at that commit: no later batch is merged.
using ProgressCallback = std::function<EngineCommand(const ProgressSnapshot&)>;

/// Fills `batch` (already cleared; arena capacity reused) with the next
/// reads of the stream. Return false once the stream is exhausted (an
/// empty batch is also treated as end of stream). Called from the
/// engine's worker threads, never concurrently with itself.
using BatchSource = std::function<bool(ReadBatch&)>;

struct EngineConfig {
  AlignerParams params;
  usize num_threads = 1;
  /// Reads per batch: the unit of work, of in-order commit and of service
  /// scheduling. ReadSet and FASTQ-text runs, the sharded scatter and the
  /// pipeline's container decode all cut batches of this size.
  usize chunk_size = 256;
  /// Reads between progress-callback invocations; 0 = total/50.
  u64 progress_check_interval = 0;
  bool quant_gene_counts = true;
  /// Collect splice junctions (SJ.out.tab equivalent).
  bool collect_junctions = false;
  /// Minimum genomic gap treated as an intron when collecting junctions.
  u64 junction_min_intron = 21;
};

/// Accumulators for one batch of reads. The engine's batch slots each own
/// one, and so does every worker of the multi-tenant service, which reuses
/// its sink across chunks of *different* samples: the engine zeroes it
/// (capacity kept) before aligning into it, so steady-state execution
/// stays allocation-free.
struct ChunkSink {
  MappingStats stats;
  GeneCountsTable counts;  ///< sized num_genes when quant is on
  /// Null unless the engine collects junctions.
  std::unique_ptr<JunctionCollector> junctions;
};

struct AlignmentRun {
  MappingStats stats;
  GeneCountsTable gene_counts;  ///< empty when quant_gene_counts is false
  /// Per-read outcomes, index-aligned with the input. On an aborted run,
  /// entries for unprocessed reads stay kUnmapped; stats.processed is
  /// authoritative.
  std::vector<ReadOutcome> outcomes;
  /// Splice junctions (empty unless collect_junctions was set).
  std::vector<Junction> junctions;
  ProgressLog progress_log;
  bool aborted = false;
  double wall_seconds = 0.0;  ///< measured real time of the run

  // Execution telemetry (sharded runs report sums over their shards).
  u64 stream_batches = 0;  ///< batches committed (aborted runs: up to abort)
  /// Heap allocations made by alignment work (align + commit) on worker
  /// threads; source calls are not counted. With a warmed engine,
  /// quant/junctions off and no callback this is 0 — the execution body
  /// is allocation-free at steady state.
  u64 stream_consumer_allocs = 0;
  /// Sum of the recycled batch-slot footprints (arena + outcome capacity):
  /// the run's peak ingest memory, bounded by the slot count
  /// (num_threads + 2), not by sample size.
  u64 stream_peak_arena_bytes = 0;
};

class AlignmentEngine {
 public:
  /// `annotation` may be null when gene counting is disabled.
  AlignmentEngine(const GenomeIndex& index, const Annotation* annotation,
                  EngineConfig config);
  ~AlignmentEngine();

  const EngineConfig& config() const { return config_; }

  /// The single entrypoint: validates the request (every combination rule
  /// in EngineRunRequest::validate), then runs the scatter/gather path
  /// when num_shards > 1 and the engine's execution body otherwise. A
  /// ReadSet or FASTQ text is cut into chunk_size batches. Not reentrant:
  /// one run at a time per engine (the worker pool, workspaces and batch
  /// slots are engine-owned and reused run to run). See
  /// align/run_request.h.
  AlignmentRun execute(const EngineRunRequest& request);

  // --- Chunk-granular scheduling hooks -------------------------------
  // execute() pulls its own batches; an external scheduler (the
  // multi-tenant service) instead interleaves chunks of MANY samples over
  // one engine, preempting a long sample between chunks. align_chunk runs
  // the same per-batch body as execute()'s workers, so per-read results
  // are identical to an execute() over the whole sample.

  /// Creates the workspaces if needed and returns the number of worker
  /// slots (== num_threads). NOT thread-safe: call once before spawning
  /// external workers.
  usize prepare_worker_slots();

  /// A sink dimensioned for this engine's quant/junction configuration.
  ChunkSink make_chunk_sink() const;

  /// Aligns reads [begin, end) of `reads`, writing outcomes[r - begin]
  /// and accumulating stats/counts/junctions into `sink` (which is reset
  /// first, keeping capacity). Uses worker slot `slot`'s workspace:
  /// distinct slots may execute concurrently, the same slot must not.
  /// Requires prepare_worker_slots() first and outcomes.size() >= end -
  /// begin. Merging every chunk's sink of a sample reproduces execute()'s
  /// stats, counts and junctions for that sample exactly (field-wise sums
  /// of chunk-local values, as execute()'s own commit does).
  void align_chunk(const ReadSet& reads, usize begin, usize end, usize slot,
                   ChunkSink& sink, std::span<ReadOutcome> outcomes) const;

 private:
  struct StreamSlot;

  /// The execution body behind execute() for every non-sharded request.
  /// With `sam_out` set, workers format each batch's SAM records into
  /// their slot and the in-order commit writes them.
  AlignmentRun run_pull(const BatchSource& source, u64 total_reads_hint,
                        const ProgressCallback& callback,
                        std::ostream* sam_out);
  /// Aligns the reads staged in `ws.batch.views` into `sink` (reset
  /// first) and `outcomes` (index-aligned with the views): the per-batch
  /// body shared by run_pull's workers and align_chunk.
  void align_views(AlignWorkspace& ws, ChunkSink& sink,
                   std::span<ReadOutcome> outcomes) const;

  /// Creates the worker pool on first use.
  void ensure_workers();
  /// Creates (or grows) the recycled batch-slot ring.
  void ensure_stream_slots(usize count);

  const GenomeIndex* index_;
  const Annotation* annotation_;
  EngineConfig config_;
  /// Exon-interval tables are built once and shared by every run.
  std::unique_ptr<GeneCounter> counter_;
  /// Lazily created on the first multi-threaded run; reused thereafter.
  std::unique_ptr<ThreadPool> pool_;
  /// One workspace per worker slot (num_threads of them), reused run to
  /// run so steady-state alignment stops allocating.
  std::vector<std::unique_ptr<AlignWorkspace>> workspaces_;
  /// Recycled batch slots (arena + per-batch accumulators), reused across
  /// runs so steady-state ingest stops allocating.
  std::vector<std::unique_ptr<StreamSlot>> stream_slots_;
};

}  // namespace staratlas
