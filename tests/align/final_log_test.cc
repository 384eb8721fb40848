#include "align/final_log.h"

#include <gtest/gtest.h>

#include "align/run_request.h"
#include "sim/read_simulator.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

TEST(FinalLog, ContainsStarStyleSections) {
  const auto& w = world();
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), {});
  const ReadSet reads = w.simulator->simulate(bulk_rna_profile(), 1'000, Rng(3));
  const AlignmentRun run = engine.execute({.reads = &reads});
  const std::string log = render_final_log(run, reads.size(), 100.0);

  EXPECT_NE(log.find("Number of input reads |\t1000"), std::string::npos);
  EXPECT_NE(log.find("UNIQUE READS:"), std::string::npos);
  EXPECT_NE(log.find("MULTI-MAPPING READS:"), std::string::npos);
  EXPECT_NE(log.find("UNMAPPED READS:"), std::string::npos);
  EXPECT_NE(log.find("Uniquely mapped reads number |\t" +
                     std::to_string(run.stats.unique)),
            std::string::npos);
  EXPECT_NE(log.find("Mapping speed"), std::string::npos);
  EXPECT_EQ(log.find("terminated early"), std::string::npos);
}

TEST(FinalLog, AbortedRunNoted) {
  AlignmentRun run;
  run.aborted = true;
  run.stats.processed = 100;
  run.stats.unmapped = 100;
  run.wall_seconds = 1.0;
  const std::string log = render_final_log(run, 1'000, 100.0);
  EXPECT_NE(log.find("terminated early"), std::string::npos);
}

TEST(FinalLog, PercentagesSum) {
  AlignmentRun run;
  run.stats.processed = 200;
  run.stats.unique = 100;
  run.stats.multi = 50;
  run.stats.too_many = 30;
  run.stats.unmapped = 20;
  run.wall_seconds = 2.0;
  const std::string log = render_final_log(run, 200, 100.0);
  EXPECT_NE(log.find("50.00%"), std::string::npos);  // unique
  EXPECT_NE(log.find("25.00%"), std::string::npos);  // multi
  EXPECT_NE(log.find("15.00%"), std::string::npos);  // too many
  EXPECT_NE(log.find("10.00%"), std::string::npos);  // unmapped
}

TEST(FinalLog, EmptyRunSafe) {
  AlignmentRun run;
  const std::string log = render_final_log(run, 0, 0.0);
  EXPECT_NE(log.find("Reads processed |\t0"), std::string::npos);
}

TEST(FinalLog, SpeedRowAlwaysPresent) {
  // Regression: the row used to vanish when wall_seconds <= 0, changing
  // the log's line count between measured and merged/zero-wall runs.
  AlignmentRun run;
  run.stats.processed = 100;
  run.stats.unique = 100;
  run.wall_seconds = 0.0;
  const std::string log = render_final_log(run, 100, 100.0);
  EXPECT_NE(log.find("Mapping speed, Million of reads per hour |\t0.00"),
            std::string::npos);
}

usize count_lines(const std::string& text) {
  usize lines = 0;
  for (char c : text) lines += c == '\n';
  return lines;
}

TEST(FinalLog, ZeroReadShardKeepsLogShape) {
  // A zero-read shard (scatter/gather tail) must render the same line
  // count as a populated run: percent rows print 0.00% (denominator
  // clamps to 1) and the speed row prints 0.00.
  AlignmentRun empty_shard;
  const std::string empty_log = render_final_log(empty_shard, 0, 0.0);

  AlignmentRun populated;
  populated.stats.processed = 50;
  populated.stats.unique = 40;
  populated.stats.unmapped = 10;
  populated.wall_seconds = 1.5;
  const std::string full_log = render_final_log(populated, 50, 100.0);

  EXPECT_EQ(count_lines(empty_log), count_lines(full_log));
  EXPECT_NE(empty_log.find("Uniquely mapped reads % |\t0.00%"),
            std::string::npos);
  EXPECT_NE(empty_log.find("% of reads unmapped |\t0.00%"),
            std::string::npos);
  EXPECT_NE(empty_log.find("Mapping speed"), std::string::npos);
}

}  // namespace
}  // namespace staratlas
