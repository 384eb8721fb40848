#include "align/early_stopping.h"

#include <gtest/gtest.h>

#include "align/run_request.h"
#include "common/error.h"

#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

TEST(EarlyStopDecision, RuleMatchesPaper) {
  EarlyStopPolicy policy;  // 10% checkpoint, 30% threshold
  EXPECT_TRUE(early_stop_decision(policy, 0.25));
  EXPECT_TRUE(early_stop_decision(policy, 0.299));
  EXPECT_FALSE(early_stop_decision(policy, 0.30));
  EXPECT_FALSE(early_stop_decision(policy, 0.90));
}

TEST(EarlyStopDecision, DisabledNeverStops)
{
  EarlyStopPolicy policy;
  policy.enabled = false;
  EXPECT_FALSE(early_stop_decision(policy, 0.01));
}

TEST(EarlyStopPolicy, Validation) {
  EarlyStopPolicy ok;
  ok.validate();
  EarlyStopPolicy bad_checkpoint;
  bad_checkpoint.checkpoint_fraction = 0.0;
  EXPECT_THROW(bad_checkpoint.validate(), InvalidArgument);
  bad_checkpoint.checkpoint_fraction = 1.0;
  EXPECT_THROW(bad_checkpoint.validate(), InvalidArgument);
  EarlyStopPolicy bad_rate;
  bad_rate.min_mapped_rate = 1.5;
  EXPECT_THROW(bad_rate.validate(), InvalidArgument);
}

ProgressSnapshot snapshot(u64 total, u64 processed, u64 mapped) {
  ProgressSnapshot snap;
  snap.total_reads = total;
  snap.processed = processed;
  snap.unique = mapped;
  snap.unmapped = processed - mapped;
  return snap;
}

TEST(EarlyStopController, StopsLowMapRateAtCheckpoint) {
  EarlyStopController controller(EarlyStopPolicy{});
  auto callback = controller.callback();
  // Before the checkpoint: keep going regardless of rate.
  EXPECT_EQ(callback(snapshot(1'000, 50, 5)), EngineCommand::kContinue);
  EXPECT_FALSE(controller.decision().evaluated);
  // At 10%: rate 10% < 30% -> abort.
  EXPECT_EQ(callback(snapshot(1'000, 100, 10)), EngineCommand::kAbort);
  EXPECT_TRUE(controller.decision().evaluated);
  EXPECT_TRUE(controller.decision().stopped);
  EXPECT_NEAR(controller.decision().observed_rate, 0.10, 1e-9);
  EXPECT_EQ(controller.decision().at_reads, 100u);
}

TEST(EarlyStopController, PassesHighMapRate) {
  EarlyStopController controller(EarlyStopPolicy{});
  auto callback = controller.callback();
  EXPECT_EQ(callback(snapshot(1'000, 120, 100)), EngineCommand::kContinue);
  EXPECT_TRUE(controller.decision().evaluated);
  EXPECT_FALSE(controller.decision().stopped);
}

TEST(EarlyStopController, OneShotDecision) {
  EarlyStopController controller(EarlyStopPolicy{});
  auto callback = controller.callback();
  EXPECT_EQ(callback(snapshot(1'000, 100, 90)), EngineCommand::kContinue);
  // A later terrible snapshot no longer triggers (decision already made).
  EXPECT_EQ(callback(snapshot(1'000, 500, 90)), EngineCommand::kContinue);
  EXPECT_FALSE(controller.decision().stopped);
}

TEST(EarlyStopController, DisabledPolicyNeverEvaluates) {
  EarlyStopPolicy policy;
  policy.enabled = false;
  EarlyStopController controller(policy);
  auto callback = controller.callback();
  EXPECT_EQ(callback(snapshot(100, 50, 0)), EngineCommand::kContinue);
  EXPECT_FALSE(controller.decision().evaluated);
}

// Integration: real engine + controller on real reads.
TEST(EarlyStopController, AbortsSingleCellAlignment) {
  const auto& w = world();
  const ReadSet reads =
      w.simulator->simulate(single_cell_profile(), 3'000, Rng(61));
  EngineConfig config;
  config.progress_check_interval = 150;  // 5% granularity
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                               config);
  EarlyStopController controller(EarlyStopPolicy{});
  const AlignmentRun run =
      engine.execute({.reads = &reads, .callback = controller.callback()});
  EXPECT_TRUE(run.aborted);
  EXPECT_TRUE(controller.decision().stopped);
  EXPECT_LT(controller.decision().observed_rate, 0.30);
  // The paper's point: ~90% of the alignment work is saved.
  EXPECT_LT(run.stats.processed, reads.size() / 2);
}

TEST(EarlyStopController, LetsBulkAlignmentFinish) {
  const auto& w = world();
  const ReadSet reads =
      w.simulator->simulate(bulk_rna_profile(), 2'000, Rng(62));
  EngineConfig config;
  config.progress_check_interval = 100;
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                               config);
  EarlyStopController controller(EarlyStopPolicy{});
  const AlignmentRun run =
      engine.execute({.reads = &reads, .callback = controller.callback()});
  EXPECT_FALSE(run.aborted);
  EXPECT_TRUE(controller.decision().evaluated);
  EXPECT_FALSE(controller.decision().stopped);
  EXPECT_EQ(run.stats.processed, reads.size());
}

}  // namespace
}  // namespace staratlas
