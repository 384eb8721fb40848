#include "align/sharded.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "align/final_log.h"
#include "align/run_request.h"
#include "common/error.h"
#include "io/fastq_block.h"

namespace staratlas {

namespace {

u64 resolve_interval(const ShardedConfig& config, u64 total_reads) {
  return config.engine.progress_check_interval
             ? config.engine.progress_check_interval
             : std::max<u64>(1, total_reads / 50);
}

/// BatchSource over one byte range: batches are capped so they never
/// straddle a global checkpoint boundary — the load-bearing half of the
/// progress-log determinism contract. `global_offset` is the range's
/// absolute first-read index from the plan.
class CappedRangeSource {
 public:
  CappedRangeSource(std::string_view range_data, u64 global_offset,
                    u64 interval, usize batch_size)
      : reader_(range_data),
        global_offset_(global_offset),
        interval_(interval),
        batch_size_(std::max<usize>(1, batch_size)) {}

  bool operator()(ReadBatch& batch) {
    const u64 global = global_offset_ + consumed_;
    const u64 to_boundary = interval_ - global % interval_;
    const usize want =
        static_cast<usize>(std::min<u64>(batch_size_, to_boundary));
    const usize got = reader_.read_batch(batch, want);
    consumed_ += got;
    return got > 0;
  }

 private:
  FastqBlockReader reader_;
  u64 global_offset_;
  u64 interval_;
  usize batch_size_;
  u64 consumed_ = 0;
};

}  // namespace

ShardedRun align_sharded(std::string_view fastq,
                         const ShardIndexProvider& provider,
                         const Annotation* annotation,
                         const ShardedConfig& config,
                         std::ostream* sam_out) {
  STARATLAS_CHECK(provider != nullptr);
  STARATLAS_CHECK(config.num_shards >= 1);
  const auto wall_start = std::chrono::steady_clock::now();

  ShardedRun out;
  out.plan = plan_fastq_shards(fastq, config.num_shards);
  const u64 interval = resolve_interval(config, out.plan.total_reads);
  out.global_check_interval = interval;

  const usize num_shards = config.num_shards;
  out.shard_runs.resize(num_shards);
  // Shard-local snapshots taken exactly at global checkpoint boundaries;
  // indexed by shard so concurrent workers never share a vector.
  std::vector<std::vector<ProgressSnapshot>> checkpoints(num_shards);
  std::vector<std::exception_ptr> errors(num_shards);
  // Per-shard SAM records, written in shard order by the gather.
  std::vector<std::ostringstream> sam_parts(sam_out != nullptr ? num_shards
                                                               : 0);

  auto run_shard = [&](usize s) noexcept {
    try {
      const ShardRange& range = out.plan.ranges[s];
      const std::shared_ptr<const GenomeIndex> index = provider(s);
      STARATLAS_CHECK(index != nullptr);
      EngineConfig engine_config = config.engine;
      // The engine checkpoints at shard-local multiples, which never line
      // up with global boundaries for a shard starting mid-interval; ask
      // for a callback at every commit and pick the boundaries out by
      // absolute read position instead.
      engine_config.progress_check_interval = 1;
      AlignmentEngine engine(*index, annotation, engine_config);
      CappedRangeSource source(
          fastq.substr(range.byte_begin, range.byte_end - range.byte_begin),
          range.first_read, interval, config.engine.chunk_size);
      const ProgressCallback on_commit = [&](const ProgressSnapshot& snap) {
        if ((range.first_read + snap.processed) % interval == 0) {
          checkpoints[s].push_back(snap);
        }
        return EngineCommand::kContinue;
      };
      // The shard's own read count is the progress denominator, so its
      // local %complete is correct (not off by a factor of num_shards).
      AlignmentRun run = engine.execute(
          {.batches = [&source](ReadBatch& batch) { return source(batch); },
           .total_reads_hint = range.num_reads,
           .callback = on_commit,
           .sam_out = sam_out != nullptr ? &sam_parts[s] : nullptr});
      STARATLAS_CHECK(run.stats.processed == range.num_reads);
      out.shard_runs[s] = std::move(run);
    } catch (...) {
      errors[s] = std::current_exception();
    }
  };

  if (num_shards == 1) {
    run_shard(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(num_shards);
    for (usize s = 0; s < num_shards; ++s) workers.emplace_back(run_shard, s);
    for (auto& worker : workers) worker.join();
  }
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Gather: sequential walk in shard order. Each recorded snapshot plus
  // the full stats of every earlier shard equals the unsharded cumulative
  // counters at that boundary (in-order commits within a shard, exact
  // read partition across shards).
  AlignmentRun& merged = out.merged;
  const bool quant = config.engine.quant_gene_counts && annotation != nullptr;
  if (quant) merged.gene_counts = GeneCountsTable(annotation->num_genes());
  merged.outcomes.reserve(out.plan.total_reads);
  std::vector<std::vector<Junction>> junction_parts;
  junction_parts.reserve(num_shards);
  MappingStats prefix;
  u64 next_boundary = interval;
  for (usize s = 0; s < num_shards; ++s) {
    AlignmentRun& shard = out.shard_runs[s];
    const ShardRange& range = out.plan.ranges[s];
    for (const ProgressSnapshot& snap : checkpoints[s]) {
      STARATLAS_CHECK(range.first_read + snap.processed == next_boundary);
      ProgressSnapshot row;
      row.total_reads = out.plan.total_reads;
      row.processed = next_boundary;
      row.unique = prefix.unique + snap.unique;
      row.multi = prefix.multi + snap.multi;
      row.too_many = prefix.too_many + snap.too_many;
      row.unmapped = prefix.unmapped + snap.unmapped;
      merged.progress_log.append(row);
      next_boundary += interval;
    }
    prefix += shard.stats;
    merged.stats += shard.stats;
    merged.outcomes.insert(merged.outcomes.end(), shard.outcomes.begin(),
                           shard.outcomes.end());
    shard.outcomes.clear();
    shard.outcomes.shrink_to_fit();
    if (quant) merged.gene_counts += shard.gene_counts;
    if (config.engine.collect_junctions) {
      junction_parts.push_back(shard.junctions);
    }
    if (sam_out != nullptr) {
      const std::string_view part = sam_parts[s].view();
      sam_out->write(part.data(), static_cast<std::streamsize>(part.size()));
    }
    merged.stream_batches += shard.stream_batches;
    merged.stream_consumer_allocs += shard.stream_consumer_allocs;
    merged.stream_peak_arena_bytes += shard.stream_peak_arena_bytes;
  }
  STARATLAS_CHECK(merged.stats.processed == out.plan.total_reads);
  STARATLAS_CHECK(merged.progress_log.entries().size() ==
                  out.plan.total_reads / interval);
  if (config.engine.collect_junctions) {
    merged.junctions = merge_junctions(junction_parts);
  }

  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
  merged.wall_seconds = out.wall_seconds;
  // Final summary row under the same condition the engine uses with a
  // callback installed: only when checkpoint rows exist.
  if (!merged.progress_log.entries().empty()) {
    ProgressSnapshot fin;
    fin.total_reads = out.plan.total_reads;
    fin.processed = merged.stats.processed;
    fin.unique = merged.stats.unique;
    fin.multi = merged.stats.multi;
    fin.too_many = merged.stats.too_many;
    fin.unmapped = merged.stats.unmapped;
    fin.elapsed_seconds = out.wall_seconds;
    merged.progress_log.append(fin);
  }
  return out;
}

ShardedRun align_sharded(std::string_view fastq, const GenomeIndex& index,
                         const Annotation* annotation,
                         const ShardedConfig& config, std::ostream* sam_out) {
  // Aliasing shared_ptr: borrowed, never deleted; caller keeps it alive.
  const std::shared_ptr<const GenomeIndex> borrowed(
      std::shared_ptr<const GenomeIndex>(), &index);
  return align_sharded(
      fastq, [&borrowed](usize) { return borrowed; }, annotation, config,
      sam_out);
}

ShardedRun align_sharded(std::string_view fastq, SharedIndexCache& cache,
                         const std::string& key,
                         const SharedIndexCache::Loader& loader,
                         const Annotation* annotation,
                         const ShardedConfig& config) {
  return align_sharded(
      fastq, [&](usize) { return cache.acquire(key, loader); }, annotation,
      config);
}

AlignmentRun align_unsharded_reference(std::string_view fastq,
                                       const GenomeIndex& index,
                                       const Annotation* annotation,
                                       const ShardedConfig& config) {
  const u64 total_reads = count_fastq_records(fastq).records;
  const u64 interval = resolve_interval(config, total_reads);
  EngineConfig engine_config = config.engine;
  engine_config.progress_check_interval = interval;
  AlignmentEngine engine(index, annotation, engine_config);
  CappedRangeSource source(fastq, 0, interval, config.engine.chunk_size);
  AlignmentRun run = engine.execute(
      {.batches = [&source](ReadBatch& batch) { return source(batch); },
       .total_reads_hint = total_reads,
       .callback = [](const ProgressSnapshot&) {
         return EngineCommand::kContinue;
       }});
  STARATLAS_CHECK(run.stats.processed == total_reads);
  return run;
}

std::string render_sharded_final_log(const ShardedRun& run,
                                     double mean_read_length) {
  return render_final_log(run.merged, run.plan.total_reads, mean_read_length);
}

}  // namespace staratlas
