// Shared setup for the paper-reproduction benches: the bench-scale genome
// world and the paper's anchor constants.
#pragma once

#include <memory>
#include <sstream>

#include "align/engine.h"
#include "align/run_request.h"
#include "genome/synthesizer.h"
#include "index/footprint.h"
#include "index/genome_index.h"
#include "sim/read_simulator.h"

namespace staratlas::bench {

// ------------------------------------------------------------------
// Paper anchors (CLUSTER 2024, Kica et al.) — the numbers the benches
// print next to their measurements.
inline constexpr double kPaperSpeedup = 12.0;          // ">12x" (Fig 3)
inline constexpr double kPaperIndexGib108 = 85.0;      // §III.A
inline constexpr double kPaperIndexGib111 = 29.5;      // §III.A
inline constexpr double kPaperMeanFastqGib = 15.9;     // §III.A corpus
inline constexpr double kPaperFig3Files = 49;          // §III.A corpus
inline constexpr double kPaperTotalFastqGib = 777.0;   // §III.A corpus
inline constexpr double kPaperFig4Runs = 1000;         // §III.B
inline constexpr double kPaperFig4Stopped = 38;        // §III.B
inline constexpr double kPaperFig4TotalHours = 155.8;  // §III.B
inline constexpr double kPaperFig4SavedHours = 30.4;   // §III.B
inline constexpr double kPaperFig4SavedPct = 19.5;     // §III.B
// Derived: STAR seconds per FASTQ GiB on r6a.4xlarge at release 111.
inline constexpr double kPaperAlignSecsPerGib =
    kPaperFig4TotalHours * 3600.0 / (kPaperFig4Runs * kPaperMeanFastqGib);

// ------------------------------------------------------------------
// Bench-scale genome world (bigger than the unit-test world).
struct BenchWorld {
  GenomeSpec spec;
  std::unique_ptr<GenomeSynthesizer> synthesizer;
  Assembly r108;
  Assembly r111;
  GenomeIndex index108;
  GenomeIndex index111;
  std::unique_ptr<ReadSimulator> simulator;
};

inline const BenchWorld& bench_world() {
  static const BenchWorld* instance = [] {
    auto* w = new BenchWorld();
    w->spec.num_chromosomes = 3;
    w->spec.chromosome_length = 300'000;
    w->spec.genes_per_chromosome = 30;
    w->spec.seed = 2024;
    w->synthesizer = std::make_unique<GenomeSynthesizer>(w->spec);
    w->r108 = w->synthesizer->make_release108();
    w->r111 = w->synthesizer->make_release111();
    w->index108 = GenomeIndex::build(w->r108);
    w->index111 = GenomeIndex::build(w->r111);
    w->simulator = std::make_unique<ReadSimulator>(
        w->r111, w->synthesizer->annotation(),
        w->synthesizer->repeat_regions());
    return w;
  }();
  return *instance;
}

/// Scale model mapping synthetic index bytes -> paper GiB, anchored on
/// "the release-111-style index corresponds to 29.5 GiB".
inline ScaleModel index_scale_model() {
  return ScaleModel::calibrate(bench_world().index111.stats().total(),
                               ByteSize::from_gib(kPaperIndexGib111));
}

/// Aligns a read set on the given index with n threads; real work.
inline AlignmentRun align_reads(const GenomeIndex& index, const ReadSet& reads,
                                usize threads = 4) {
  EngineConfig config;
  config.num_threads = threads;
  AlignmentEngine engine(
      index, &bench_world().synthesizer->annotation(), config);
  EngineRunRequest request;
  request.reads = &reads;
  return engine.execute(request);
}

}  // namespace staratlas::bench
