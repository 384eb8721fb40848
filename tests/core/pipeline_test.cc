#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "common/error.h"

#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

struct PipelineFixture {
  std::unique_ptr<SraRepository> repository;

  PipelineFixture() {
    const auto& w = world();
    CatalogSpec spec;
    spec.num_samples = 8;
    spec.single_cell_fraction = 0.5;
    spec.reads_at_mean = 1'200;
    spec.min_reads = 800;
    spec.seed = 55;
    auto simulator = std::make_shared<ReadSimulator>(
        w.r111, w.synthesizer->annotation(), w.synthesizer->repeat_regions());
    repository =
        std::make_unique<SraRepository>(make_catalog(spec), simulator);
  }

  const SraSample* find(LibraryType type) const {
    for (const auto& sample : repository->catalog()) {
      if (sample.type == type) return &sample;
    }
    return nullptr;
  }
};

TEST(Pipeline, BulkSampleAcceptedEndToEnd) {
  const auto& w = world();
  PipelineFixture fx;
  const SraSample* bulk = fx.find(LibraryType::kBulk);
  ASSERT_NE(bulk, nullptr);

  PipelineConfig config;
  config.engine.progress_check_interval = 100;
  PipelineRunner runner(w.index111, w.synthesizer->annotation(),
                        *fx.repository, config);
  const AccessionResult result = runner.process(bulk->accession);
  EXPECT_EQ(result.accession, bulk->accession);
  EXPECT_EQ(result.library_type, LibraryType::kBulk);
  EXPECT_EQ(result.total_reads, bulk->num_reads);
  EXPECT_TRUE(result.accepted);
  EXPECT_FALSE(result.early_stop.stopped);
  EXPECT_GT(result.stats.mapped_rate(), 0.30);
  EXPECT_GT(result.gene_counts.total_counted(), 0u);
  EXPECT_GT(result.fastq_bytes, result.sra_bytes);
  EXPECT_GT(result.align_wall_seconds, 0.0);
}

TEST(Pipeline, SingleCellSampleEarlyStopped) {
  const auto& w = world();
  PipelineFixture fx;
  const SraSample* sc = fx.find(LibraryType::kSingleCell);
  ASSERT_NE(sc, nullptr);

  PipelineConfig config;
  config.engine.progress_check_interval = 50;
  PipelineRunner runner(w.index111, w.synthesizer->annotation(),
                        *fx.repository, config);
  const AccessionResult result = runner.process(sc->accession);
  EXPECT_EQ(result.library_type, LibraryType::kSingleCell);
  EXPECT_TRUE(result.early_stop.stopped);
  EXPECT_FALSE(result.accepted);
  EXPECT_LT(result.stats.processed, result.total_reads / 2);
}

TEST(Pipeline, EarlyStopDisabledRunsToCompletion) {
  const auto& w = world();
  PipelineFixture fx;
  const SraSample* sc = fx.find(LibraryType::kSingleCell);
  ASSERT_NE(sc, nullptr);

  PipelineConfig config;
  config.early_stop.enabled = false;
  PipelineRunner runner(w.index111, w.synthesizer->annotation(),
                        *fx.repository, config);
  const AccessionResult result = runner.process(sc->accession);
  EXPECT_FALSE(result.early_stop.stopped);
  EXPECT_EQ(result.stats.processed, result.total_reads);
  EXPECT_FALSE(result.accepted);  // still below the atlas threshold
}

TEST(Pipeline, UnknownAccessionThrows) {
  const auto& w = world();
  PipelineFixture fx;
  PipelineRunner runner(w.index111, w.synthesizer->annotation(),
                        *fx.repository, PipelineConfig{});
  EXPECT_THROW(runner.process("SRR00000000"), InvalidArgument);
}

}  // namespace
}  // namespace staratlas
