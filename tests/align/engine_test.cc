#include "align/engine.h"

#include <gtest/gtest.h>

#include "align/run_request.h"
#include "common/error.h"
#include "sim/read_simulator.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

ReadSet bulk_reads(usize n, u64 seed = 3) {
  return world().simulator->simulate(bulk_rna_profile(), n, Rng(seed));
}

TEST(Engine, StatsSumToProcessed) {
  const auto& w = world();
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), {});
  const ReadSet reads = bulk_reads(2'000);
  const AlignmentRun run = engine.execute({.reads = &reads});
  EXPECT_EQ(run.stats.processed, 2'000u);
  EXPECT_EQ(run.stats.unique + run.stats.multi + run.stats.too_many +
                run.stats.unmapped,
            run.stats.processed);
  EXPECT_FALSE(run.aborted);
  EXPECT_GT(run.wall_seconds, 0.0);
}

TEST(Engine, OutcomesArrayMatchesStats) {
  const auto& w = world();
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), {});
  const ReadSet reads = bulk_reads(1'000);
  const AlignmentRun run = engine.execute({.reads = &reads});
  ASSERT_EQ(run.outcomes.size(), reads.size());
  u64 unique = 0;
  for (ReadOutcome outcome : run.outcomes) {
    unique += outcome == ReadOutcome::kUniqueMapped ? 1 : 0;
  }
  EXPECT_EQ(unique, run.stats.unique);
}

TEST(Engine, DeterministicStatsAcrossThreadCounts) {
  const auto& w = world();
  const ReadSet reads = bulk_reads(1'500);
  MappingStats reference;
  for (usize threads : {1u, 2u, 4u}) {
    EngineConfig config;
    config.num_threads = threads;
    AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                                 config);
    const AlignmentRun run = engine.execute({.reads = &reads});
    if (threads == 1) {
      reference = run.stats;
    } else {
      EXPECT_EQ(run.stats.unique, reference.unique) << threads;
      EXPECT_EQ(run.stats.multi, reference.multi) << threads;
      EXPECT_EQ(run.stats.too_many, reference.too_many) << threads;
      EXPECT_EQ(run.stats.unmapped, reference.unmapped) << threads;
    }
  }
}

TEST(Engine, GeneCountsTotalsConsistent) {
  const auto& w = world();
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), {});
  const ReadSet reads = bulk_reads(2'000);
  const AlignmentRun run = engine.execute({.reads = &reads});
  const GeneCountsTable& counts = run.gene_counts;
  EXPECT_EQ(counts.per_gene.size(), w.synthesizer->annotation().num_genes());
  EXPECT_EQ(counts.total_counted() + counts.n_unmapped +
                counts.n_multimapping + counts.n_no_feature +
                counts.n_ambiguous,
            run.stats.processed);
  EXPECT_EQ(counts.n_unmapped, run.stats.unmapped);
  EXPECT_EQ(counts.n_multimapping, run.stats.multi + run.stats.too_many);
  EXPECT_GT(counts.total_counted(), 0u);
}

TEST(Engine, QuantDisabledSkipsCounts) {
  const auto& w = world();
  EngineConfig config;
  config.quant_gene_counts = false;
  AlignmentEngine engine(w.index111, nullptr, config);
  const ReadSet reads = bulk_reads(500);
  const AlignmentRun run = engine.execute({.reads = &reads});
  EXPECT_TRUE(run.gene_counts.per_gene.empty());
  EXPECT_GT(run.stats.processed, 0u);
}

TEST(Engine, QuantRequiresAnnotation) {
  const auto& w = world();
  EngineConfig config;
  config.quant_gene_counts = true;
  EXPECT_THROW(AlignmentEngine(w.index111, nullptr, config), InternalError);
}

TEST(Engine, CallbackInvokedAtIntervals) {
  const auto& w = world();
  EngineConfig config;
  config.progress_check_interval = 200;
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                               config);
  usize calls = 0;
  u64 last_processed = 0;
  const ReadSet reads = bulk_reads(1'000);
  const AlignmentRun run = engine.execute(
      {.reads = &reads, .callback = [&](const ProgressSnapshot& snap) {
         ++calls;
         EXPECT_GE(snap.processed, last_processed);
         last_processed = snap.processed;
         EXPECT_EQ(snap.total_reads, 1'000u);
         return EngineCommand::kContinue;
       }});
  EXPECT_GE(calls, 3u);
  EXPECT_LE(calls, 6u);
  EXPECT_FALSE(run.aborted);
}

TEST(Engine, AbortStopsPromptly) {
  const auto& w = world();
  EngineConfig config;
  config.progress_check_interval = 100;
  config.chunk_size = 50;
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                               config);
  const ReadSet reads = bulk_reads(4'000);
  const AlignmentRun run = engine.execute(
      {.reads = &reads, .callback = [&](const ProgressSnapshot& snap) {
         return snap.processed >= 400 ? EngineCommand::kAbort
                                      : EngineCommand::kContinue;
       }});
  EXPECT_TRUE(run.aborted);
  // In-order commit: the abort lands exactly on the checkpoint's batch.
  EXPECT_EQ(run.stats.processed, 400u);
}

TEST(Engine, AbortWithThreadsStillStops) {
  const auto& w = world();
  EngineConfig config;
  config.progress_check_interval = 100;
  config.chunk_size = 50;
  config.num_threads = 4;
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                               config);
  const ReadSet reads = bulk_reads(4'000);
  const AlignmentRun run = engine.execute(
      {.reads = &reads, .callback = [&](const ProgressSnapshot&) {
         return EngineCommand::kAbort;  // abort at first checkpoint
       }});
  EXPECT_TRUE(run.aborted);
  // Workers running ahead are discarded: the first checkpoint (100 reads)
  // is the end of the second 50-read batch at any thread count.
  EXPECT_EQ(run.stats.processed, 100u);
}

TEST(Engine, EmptyReadSet) {
  const auto& w = world();
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), {});
  const ReadSet reads;
  const AlignmentRun run = engine.execute({.reads = &reads});
  EXPECT_EQ(run.stats.processed, 0u);
  EXPECT_FALSE(run.aborted);
}

TEST(Engine, ProgressLogRecordsRun) {
  const auto& w = world();
  EngineConfig config;
  config.progress_check_interval = 250;
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                               config);
  const ReadSet reads = bulk_reads(1'000);
  const AlignmentRun run = engine.execute(
      {.reads = &reads, .callback = [](const ProgressSnapshot&) {
         return EngineCommand::kContinue;
       }});
  EXPECT_GE(run.progress_log.entries().size(), 3u);
  const std::string rendered = run.progress_log.render();
  EXPECT_NE(rendered.find("Reads processed"), std::string::npos);
}

TEST(Engine, BulkMappingRateHigh) {
  const auto& w = world();
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), {});
  const ReadSet reads = bulk_reads(3'000);
  const AlignmentRun run = engine.execute({.reads = &reads});
  EXPECT_GT(run.stats.mapped_rate(), 0.80);
}

TEST(Engine, SingleCellMappingRateBelowThreshold) {
  const auto& w = world();
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), {});
  const ReadSet reads =
      w.simulator->simulate(single_cell_profile(), 3'000, Rng(8));
  const AlignmentRun run = engine.execute({.reads = &reads});
  EXPECT_LT(run.stats.mapped_rate(), 0.30);
  EXPECT_GT(run.stats.mapped_rate(), 0.05);
}

TEST(Engine, MappingRateNearlyEqualAcrossReleases) {
  // The paper's <1% mean mapping-rate difference between releases.
  const auto& w = world();
  const ReadSet reads = bulk_reads(3'000, 21);
  AlignmentEngine e108(w.index108, &w.synthesizer->annotation(), {});
  AlignmentEngine e111(w.index111, &w.synthesizer->annotation(), {});
  const double r108 = e108.execute({.reads = &reads}).stats.mapped_rate();
  const double r111 = e111.execute({.reads = &reads}).stats.mapped_rate();
  EXPECT_NEAR(r108, r111, 0.01);
}

}  // namespace
}  // namespace staratlas
