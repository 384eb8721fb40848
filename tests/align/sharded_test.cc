// Scatter/gather determinism: align_sharded must reproduce the unsharded
// run BYTE-IDENTICALLY — gene counts TSV, junctions TSV, progress log and
// final log (wall time pinned) — for every shard/thread combination, with
// shard-local progress denominators and single-flight index attachment.
#include "align/sharded.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "align/final_log.h"
#include "align/junctions.h"
#include "common/error.h"
#include "io/fastq.h"
#include "sim/read_simulator.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

std::string sample_fastq(usize n = 600, u64 seed = 4242) {
  const auto& w = world();
  const ReadSet reads = w.simulator->simulate(bulk_rna_profile(), n, Rng(seed));
  std::ostringstream out;
  write_fastq(out, reads.reads);
  return out.str();
}

ShardedConfig sharded_config(usize num_shards, usize num_threads) {
  ShardedConfig config;
  config.engine.num_threads = num_threads;
  config.engine.collect_junctions = true;
  config.engine.progress_check_interval = 64;
  config.num_shards = num_shards;
  config.engine.chunk_size = 32;
  return config;
}

/// Renders every deterministic artifact of a run into one string; byte
/// equality of this is the PR's acceptance bar. Wall time is pinned to 0
/// so the final log's "Mapping speed" row is comparable.
std::string render_artifacts(AlignmentRun run, u64 total_reads) {
  const auto& w = world();
  run.wall_seconds = 0.0;
  std::string out;
  out += "== final ==\n" + render_final_log(run, total_reads, 100.0);
  out += "== progress ==\n" + run.progress_log.render();
  std::ostringstream counts;
  run.gene_counts.write_tsv(counts, w.synthesizer->annotation());
  out += "== counts ==\n" + counts.str();
  std::ostringstream sj;
  write_junctions_tsv(sj, run.junctions, w.index111);
  out += "== junctions ==\n" + sj.str();
  return out;
}

void expect_same_outcomes(const AlignmentRun& a, const AlignmentRun& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (usize i = 0; i < a.outcomes.size(); ++i) {
    ASSERT_EQ(a.outcomes[i], b.outcomes[i]) << "read " << i;
  }
}

TEST(Sharded, ByteIdenticalToUnshardedAcrossShardAndThreadCounts) {
  const auto& w = world();
  const std::string fastq = sample_fastq();
  const Annotation* annotation = &w.synthesizer->annotation();

  const AlignmentRun reference = align_unsharded_reference(
      fastq, w.index111, annotation, sharded_config(1, 1));
  ASSERT_EQ(reference.stats.processed, 600u);
  ASSERT_FALSE(reference.progress_log.entries().empty());
  const std::string want = render_artifacts(reference, 600);

  for (const usize shards : {usize{1}, usize{2}, usize{4}, usize{8}}) {
    for (const usize threads : {usize{1}, usize{4}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      const ShardedRun run = align_sharded(
          fastq, w.index111, annotation, sharded_config(shards, threads));
      EXPECT_EQ(run.plan.num_shards(), shards);
      EXPECT_EQ(run.global_check_interval, 64u);
      EXPECT_EQ(run.merged.stats.processed, 600u);
      expect_same_outcomes(reference, run.merged);
      EXPECT_EQ(render_artifacts(run.merged, run.plan.total_reads), want);
      AlignmentRun pinned = run.merged;
      pinned.wall_seconds = 0.0;
      EXPECT_EQ(render_sharded_final_log({run.plan, pinned, {}, 0, 0.0}, 100.0),
                render_final_log(pinned, 600, 100.0));
    }
  }
}

TEST(Sharded, ShardProgressUsesShardLocalDenominator) {
  // Regression: per-shard trackers used to be built with the sample's
  // total read count, so a shard's %complete topped out at 1/num_shards.
  const auto& w = world();
  const std::string fastq = sample_fastq(320, 7);
  const ShardedRun run = align_sharded(fastq, w.index111,
                                       &w.synthesizer->annotation(),
                                       sharded_config(4, 1));
  for (usize s = 0; s < run.plan.num_shards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const ShardRange& range = run.plan.ranges[s];
    const auto& entries = run.shard_runs[s].progress_log.entries();
    ASSERT_FALSE(entries.empty());
    for (const ProgressSnapshot& snap : entries) {
      EXPECT_EQ(snap.total_reads, range.num_reads);
    }
    EXPECT_EQ(entries.back().processed, range.num_reads);
    EXPECT_DOUBLE_EQ(entries.back().fraction_processed(), 1.0);
  }
}

TEST(Sharded, MergeIsDeterministicAcrossRepeats) {
  const auto& w = world();
  const std::string fastq = sample_fastq(400, 11);
  const Annotation* annotation = &w.synthesizer->annotation();
  std::string first;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const ShardedRun run =
        align_sharded(fastq, w.index111, annotation, sharded_config(4, 4));
    const std::string artifacts =
        render_artifacts(run.merged, run.plan.total_reads);
    if (repeat == 0) {
      first = artifacts;
    } else {
      EXPECT_EQ(artifacts, first) << "repeat " << repeat;
    }
  }
}

TEST(Sharded, WorkersAttachSharedIndexSingleFlight) {
  // N workers, one load: the in-process analog of FaaS workers attaching
  // one pre-staged v3 index instead of each downloading their own copy.
  const auto& w = world();
  const std::string path = ::testing::TempDir() + "staratlas_shard_index.v3";
  w.index111.save_file(path);

  const std::string fastq = sample_fastq(200, 21);
  const Annotation* annotation = &w.synthesizer->annotation();
  const ShardedConfig config = sharded_config(4, 1);
  const AlignmentRun reference =
      align_unsharded_reference(fastq, w.index111, annotation, config);

  SharedIndexCache cache(ByteSize::from_gib(4.0));
  const ShardedRun run = align_sharded(
      fastq, cache, "r111",
      [&path] { return GenomeIndex::load_file(path, IndexLoadMode::kMmap); },
      annotation, config);
  EXPECT_EQ(cache.loads(), 1u);
  EXPECT_EQ(cache.hits(), config.num_shards - 1);
  expect_same_outcomes(reference, run.merged);
  EXPECT_EQ(render_artifacts(run.merged, run.plan.total_reads),
            render_artifacts(reference, 200));
}

TEST(Sharded, MoreShardsThanCheckpointsAndEmptyTailShards) {
  // 10 reads over 8 shards: several shards are empty, none contains a
  // checkpoint boundary of its own beyond the planner's snapping; the
  // gather must still reconstruct the reference log exactly.
  const auto& w = world();
  const std::string fastq = sample_fastq(10, 33);
  const Annotation* annotation = &w.synthesizer->annotation();
  ShardedConfig config = sharded_config(8, 1);
  config.engine.progress_check_interval = 4;
  const AlignmentRun reference =
      align_unsharded_reference(fastq, w.index111, annotation, config);
  const ShardedRun run =
      align_sharded(fastq, w.index111, annotation, config);
  expect_same_outcomes(reference, run.merged);
  EXPECT_EQ(render_artifacts(run.merged, run.plan.total_reads),
            render_artifacts(reference, 10));
}

TEST(Sharded, DefaultIntervalResolvesLikeEngine) {
  const auto& w = world();
  const std::string fastq = sample_fastq(150, 5);
  ShardedConfig config = sharded_config(2, 1);
  config.engine.progress_check_interval = 0;  // engine default: total/50
  const ShardedRun run = align_sharded(fastq, w.index111,
                                       &w.synthesizer->annotation(), config);
  EXPECT_EQ(run.global_check_interval, 3u);
  const AlignmentRun reference = align_unsharded_reference(
      fastq, w.index111, &w.synthesizer->annotation(), config);
  EXPECT_EQ(render_artifacts(run.merged, run.plan.total_reads),
            render_artifacts(reference, 150));
}

TEST(Sharded, EmptyInput) {
  const auto& w = world();
  const ShardedRun run = align_sharded(std::string_view{}, w.index111,
                                       &w.synthesizer->annotation(),
                                       sharded_config(4, 2));
  EXPECT_EQ(run.merged.stats.processed, 0u);
  EXPECT_TRUE(run.merged.outcomes.empty());
  EXPECT_TRUE(run.merged.progress_log.entries().empty());
  // Zero-read gather still renders a full-shape final log.
  const std::string log = render_sharded_final_log(run, 0.0);
  EXPECT_NE(log.find("Mapping speed"), std::string::npos);
}

}  // namespace
}  // namespace staratlas
