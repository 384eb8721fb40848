// EngineRunRequest: the single validated entrypoint in front of the
// engine's execution body and the sharded path. Validation rules live in
// exactly one place (EngineRunRequest::validate), and execute() must
// reproduce the serial reference for every input kind.
#include "align/run_request.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "align/engine.h"
#include "align/sharded.h"
#include "common/error.h"
#include "io/fastq.h"
#include "sim/library_profile.h"
#include "sim/read_simulator.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::expect_identical_runs;
using staratlas::testing::serial_reference;
using staratlas::testing::world;

ReadSet sample_reads(usize n = 400, u64 seed = 77) {
  const auto& w = world();
  return w.simulator->simulate(bulk_rna_profile(), n, Rng(seed));
}

std::string to_fastq(const ReadSet& reads) {
  std::ostringstream out;
  write_fastq(out, reads.reads);
  return out.str();
}

EngineConfig engine_config(usize threads = 2) {
  EngineConfig config;
  config.num_threads = threads;
  config.collect_junctions = true;
  return config;
}

// ---- validation: every rule rejected in the one shared place ----------

TEST(RunRequest, RejectsMissingAndAmbiguousSources) {
  EngineRunRequest request;
  EXPECT_THROW(request.validate(), InvalidArgument);

  const ReadSet reads = sample_reads(10);
  const std::string fastq = to_fastq(reads);
  request.reads = &reads;
  request.fastq_text = fastq;
  EXPECT_THROW(request.validate(), InvalidArgument);
}

TEST(RunRequest, EmptyFastqTextIsAnEmptySampleShardedOrNot) {
  // Set means present: "" is a valid input, not a missing one.
  const auto& w = world();
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                         engine_config());
  for (const usize shards : {usize{1}, usize{2}}) {
    const EngineRunRequest request{.fastq_text = "", .num_shards = shards};
    EXPECT_NO_THROW(request.validate()) << "shards=" << shards;
    const AlignmentRun run = engine.execute(request);
    EXPECT_EQ(run.stats.processed, 0u) << "shards=" << shards;
    EXPECT_TRUE(run.outcomes.empty()) << "shards=" << shards;
  }
}

TEST(RunRequest, RejectsDegenerateCounts) {
  const ReadSet reads = sample_reads(10);
  EngineRunRequest request;
  request.reads = &reads;
  request.num_shards = 0;
  EXPECT_THROW(request.validate(), InvalidArgument);
}

TEST(RunRequest, RejectsShardingWithoutRawText) {
  const ReadSet reads = sample_reads(10);
  EngineRunRequest request;
  request.reads = &reads;
  request.num_shards = 4;  // sharded alignment scatters raw FASTQ text
  EXPECT_THROW(request.validate(), InvalidArgument);
}

TEST(RunRequest, RejectsEarlyStopWithSharding) {
  // Historically the CLI enforced this; now every caller inherits it.
  const std::string fastq = to_fastq(sample_reads(10));
  EngineRunRequest request;
  request.fastq_text = fastq;
  request.num_shards = 4;
  request.early_stop = EarlyStopPolicy{};
  EXPECT_THROW(request.validate(), InvalidArgument);
}

TEST(RunRequest, RejectsInvalidEarlyStopPolicy) {
  const ReadSet reads = sample_reads(10);
  EngineRunRequest request;
  request.reads = &reads;
  request.early_stop = EarlyStopPolicy{};
  request.early_stop.checkpoint_fraction = 1.5;
  EXPECT_THROW(request.validate(), InvalidArgument);
}

TEST(RunRequest, RejectsShardedOutOnNonShardedModes) {
  const ReadSet reads = sample_reads(10);
  ShardedRun sharded;
  EngineRunRequest request;
  request.reads = &reads;
  request.sharded_out = &sharded;
  EXPECT_THROW(request.validate(), InvalidArgument);
}

// ---- execute() parity with the serial reference ----------------------

// The reference is the serial per-read run over the same reads.
TEST(RunRequest, ExecuteMemoryMatchesLegacyRun) {
  const auto& w = world();
  const ReadSet reads = sample_reads();
  const AlignmentRun reference = serial_reference(
      w.index111, &w.synthesizer->annotation(), engine_config(), reads);
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                         engine_config());
  expect_identical_runs(reference, engine.execute({.reads = &reads}),
                        "reads");
}

TEST(RunRequest, ExecuteStreamFromTextMatchesMemoryRun) {
  const auto& w = world();
  const ReadSet reads = sample_reads();
  const std::string fastq = to_fastq(reads);
  EngineConfig config = engine_config();
  config.chunk_size = 64;
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), config);
  const AlignmentRun memory = engine.execute({.reads = &reads});
  const AlignmentRun streamed = engine.execute(
      {.fastq_text = fastq, .total_reads_hint = reads.size()});
  expect_identical_runs(memory, streamed, "streamed");
  EXPECT_EQ(streamed.stream_batches, (reads.size() + 63) / 64);
}

TEST(RunRequest, ExecuteShardedMatchesDirectScatterGather) {
  const auto& w = world();
  const ReadSet reads = sample_reads();
  const std::string fastq = to_fastq(reads);
  const Annotation* annotation = &w.synthesizer->annotation();

  ShardedConfig direct_config;
  direct_config.engine = engine_config();
  direct_config.num_shards = 4;
  const ShardedRun direct =
      align_sharded(fastq, w.index111, annotation, direct_config);

  AlignmentEngine engine(w.index111, annotation, engine_config());
  ShardedRun details;
  EngineRunRequest request;
  request.fastq_text = fastq;
  request.num_shards = 4;
  const AlignmentRun merged = engine.execute(request);
  expect_identical_runs(direct.merged, merged, "merged");

  // With sharded_out the per-shard detail comes back too.
  request.sharded_out = &details;
  const AlignmentRun merged_again = engine.execute(request);
  expect_identical_runs(direct.merged, merged_again, "merged_again");
  EXPECT_EQ(details.plan.num_shards(), 4u);
}

TEST(RunRequest, EngineOwnedEarlyStopAborts) {
  const auto& w = world();
  // Single-cell-shaped reads map poorly, tripping the early-stop rule.
  const ReadSet reads =
      w.simulator->simulate(single_cell_profile(), 400, Rng(99));
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                         engine_config());

  EngineRunRequest request;
  request.reads = &reads;
  request.early_stop = EarlyStopPolicy{};
  EarlyStopDecision decision;
  request.early_stop_out = &decision;
  const AlignmentRun run = engine.execute(request);
  EXPECT_TRUE(run.aborted);
  EXPECT_TRUE(decision.evaluated);
  EXPECT_TRUE(decision.stopped);
  // The 10% checkpoint (40 reads) is decided at the first commit past it:
  // the end of the first 256-read batch, whatever the thread timing.
  EXPECT_EQ(run.stats.processed, 256u);
  EXPECT_EQ(decision.at_reads, 256u);
}

TEST(RunRequest, UserCallbackStillSeesSnapshots) {
  const auto& w = world();
  const ReadSet reads = sample_reads(200);
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                         engine_config());
  usize snapshots = 0;
  EngineRunRequest request;
  request.reads = &reads;
  request.callback = [&](const ProgressSnapshot&) {
    ++snapshots;
    return EngineCommand::kContinue;
  };
  engine.execute(request);
  EXPECT_GT(snapshots, 0u);
}

}  // namespace
}  // namespace staratlas
