// Scatter/gather alignment of one sample: N engine workers each align a
// record-snapped byte range of the FASTQ (io/shard_plan) against a shared
// index, and a deterministic gather stage merges the four result
// collectors — MappingStats, GeneCountsTable, splice junctions, and the
// progress/final logs — BYTE-IDENTICALLY to the unsharded run for any
// shard count. This is the in-process form of the follow-up paper's
// serverless STAR split ("Serverless Approach to Running
// Resource-Intensive STAR Aligner"): workers attach the v3 index via
// SharedIndexCache/mmap instead of each downloading and loading it.
//
// The determinism contract (tested shard×thread matrix in
// tests/align/sharded_test.cc):
//   * Outcomes, stats, gene counts and junctions are associative sums, so
//     any partition merges exactly.
//   * Progress-log identity needs checkpoint-aligned batching: batches
//     never straddle a GLOBAL checkpoint boundary (a multiple of the
//     resolved progress_check_interval), so the unsharded stream commits
//     a row at exactly every boundary, and each shard — whose absolute
//     read offset is known from the plan — records a snapshot at exactly
//     the boundaries falling inside its range. The gather stage prefixes
//     each shard snapshot with the full stats of all earlier shards,
//     which equals the unsharded cumulative counters at that boundary.
//   * Rendered logs carry no timestamps; the final log's "Mapping speed"
//     row depends on wall_seconds, which callers pin (e.g. to 0) when
//     byte-comparing runs.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "align/engine.h"
#include "index/shared_cache.h"
#include "io/shard_plan.h"

namespace staratlas {

struct ShardedConfig {
  /// Per-worker engine configuration. `num_threads` is threads PER SHARD
  /// (total concurrency = num_shards x num_threads);
  /// `progress_check_interval` is the GLOBAL checkpoint interval of the
  /// merged log (0 = total_reads / 50, like the engine's default);
  /// `chunk_size` is the max reads per batch, and batches are additionally
  /// capped at global checkpoint boundaries (see determinism contract
  /// above).
  EngineConfig engine;
  usize num_shards = 1;
};

struct ShardedRun {
  ShardPlan plan;
  /// The gathered result, shaped exactly like an unsharded
  /// AlignmentEngine::execute over the whole file.
  AlignmentRun merged;
  /// Per-shard runs (shard-local stats, progress with the SHARD's read
  /// count as denominator, junctions). Outcomes are moved into `merged`.
  std::vector<AlignmentRun> shard_runs;
  u64 global_check_interval = 0;
  double wall_seconds = 0.0;  ///< scatter + gather wall time
};

/// Supplies shard `s` with its index attachment (a SharedIndexCache
/// acquire, an mmap load, or a borrowed in-memory index). Called once per
/// shard, possibly concurrently; the returned pointer is held for the
/// worker's lifetime.
using ShardIndexProvider =
    std::function<std::shared_ptr<const GenomeIndex>(usize shard)>;

/// Scatter/gather alignment of `fastq` (whole sample in memory — an
/// mmap'd file or decoded container). Workers run concurrently, one
/// std::thread per shard, each with its own engine; the gather stage is
/// sequential and deterministic. Throws if any worker throws. The merged
/// result is byte-identical (rendered gene counts TSV, junctions TSV,
/// progress log, final log with pinned wall time) to
/// align_unsharded_reference for every shard/thread count. With
/// `sam_out` set, each shard formats its SAM records into its own buffer
/// and the gather writes the buffers in shard (= file) order, so the
/// records equal an unsharded run's byte for byte (no header: see
/// EngineRunRequest::sam_out).
ShardedRun align_sharded(std::string_view fastq,
                         const ShardIndexProvider& provider,
                         const Annotation* annotation,
                         const ShardedConfig& config,
                         std::ostream* sam_out = nullptr);

/// Convenience overload: every shard borrows the same in-process index.
ShardedRun align_sharded(std::string_view fastq, const GenomeIndex& index,
                         const Annotation* annotation,
                         const ShardedConfig& config,
                         std::ostream* sam_out = nullptr);

/// Cache-attach overload: every shard acquires `key` from `cache`
/// (single-flight: one loader call, the rest are hits — the analog of N
/// FaaS workers attaching one shared v3 index).
ShardedRun align_sharded(std::string_view fastq, SharedIndexCache& cache,
                         const std::string& key,
                         const SharedIndexCache::Loader& loader,
                         const Annotation* annotation,
                         const ShardedConfig& config);

/// The unsharded baseline the gather output is compared against: one
/// engine streaming the whole file with the same checkpoint-aligned
/// batching and the same resolved global interval.
AlignmentRun align_unsharded_reference(std::string_view fastq,
                                       const GenomeIndex& index,
                                       const Annotation* annotation,
                                       const ShardedConfig& config);

/// Log.final.out of the gathered run (render_final_log over the merged
/// result with the plan's total read count).
std::string render_sharded_final_log(const ShardedRun& run,
                                     double mean_read_length);

}  // namespace staratlas
