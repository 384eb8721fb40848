// ABL-ES — ablation of the early-stopping design point (paper §III.B
// chose: decide at 10% of reads, threshold 30% mapped).
//
// Sweeps the checkpoint fraction and mapping-rate threshold over the
// 1000-alignment corpus and reports: hours saved, false stops (samples
// that would have finished above the atlas threshold), and misses
// (below-threshold samples that ran to completion). Also validates the
// checkpoint choice against real alignment: the observed mapping rate as
// a function of progress for one bulk and one single-cell sample.

#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "align/early_stopping.h"
#include "core/maprate_model.h"
#include "core/report.h"
#include "sim/catalog.h"

using namespace staratlas;
using namespace staratlas::bench;

int main() {
  // ---- real-alignment view: rate vs progress (why 10% is enough) ----
  const BenchWorld& w = bench_world();
  std::cout << "ABL-ES part 1: mapped-rate trajectory (real alignment)\n";
  Table trajectory({"progress", "bulk map%", "single-cell map%"});
  std::vector<double> bulk_curve;
  std::vector<double> sc_curve;
  for (const bool single_cell : {false, true}) {
    const ReadSet reads = w.simulator->simulate(
        single_cell ? single_cell_profile() : bulk_rna_profile(), 4'000,
        Rng(909));
    EngineConfig config;
    config.num_threads = 1;  // deterministic snapshot positions
    config.progress_check_interval = reads.size() / 20;  // every 5%
    AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                                 config);
    auto& curve = single_cell ? sc_curve : bulk_curve;
    engine.execute({.reads = &reads,
                    .callback = [&](const ProgressSnapshot& snap) {
                      curve.push_back(snap.mapped_rate());
                      return EngineCommand::kContinue;
                    }});
  }
  for (usize i = 0; i < std::min(bulk_curve.size(), sc_curve.size()); i += 2) {
    trajectory.add_row({strf("%zu%%", (i + 1) * 5),
                        strf("%.1f", 100.0 * bulk_curve[i]),
                        strf("%.1f", 100.0 * sc_curve[i])});
  }
  trajectory.print(std::cout);
  std::cout << "(the two classes separate long before 10%; the rate is "
               "stable after a few percent)\n\n";

  // ---- corpus sweep ----
  CatalogSpec corpus;
  corpus.num_samples = 1'000;
  corpus.single_cell_fraction = 0.038;
  corpus.seed = 88;
  const auto catalog = make_catalog(corpus);
  const MapRateModel model;  // library defaults (match calibration)
  const double atlas_threshold = 0.30;

  std::cout << "ABL-ES part 2: checkpoint x threshold sweep over "
            << catalog.size() << " alignments\n";
  Table sweep({"checkpoint", "threshold", "stopped", "false stops", "misses",
               "hours saved", "% of total"});
  double total_hours = 0.0;
  for (const auto& sample : catalog) {
    total_hours += sample.fastq_bytes.gib() * kPaperAlignSecsPerGib / 3600.0;
  }

  for (const double checkpoint : {0.02, 0.05, 0.10, 0.20, 0.35, 0.50}) {
    for (const double threshold : {0.20, 0.30, 0.40}) {
      EarlyStopPolicy policy;
      policy.checkpoint_fraction = checkpoint;
      policy.min_mapped_rate = threshold;
      // Checkpoint noise shrinks with the number of reads observed.
      MapRateModel noisy = model;
      noisy.checkpoint_noise_sd =
          model.checkpoint_noise_sd * std::sqrt(0.10 / checkpoint);

      Rng noise(4321);
      usize stopped = 0;
      usize false_stops = 0;
      usize misses = 0;
      double saved_hours = 0.0;
      for (const auto& sample : catalog) {
        const double full_hours =
            sample.fastq_bytes.gib() * kPaperAlignSecsPerGib / 3600.0;
        Rng rate_rng = Rng(sample.seed).fork("true_rate");
        const double true_rate =
            noisy.sample_true_rate(sample.type, rate_rng);
        const double observed = noisy.checkpoint_observation(true_rate, noise);
        if (early_stop_decision(policy, observed)) {
          ++stopped;
          saved_hours += full_hours * (1.0 - checkpoint);
          if (true_rate >= atlas_threshold) ++false_stops;
        } else if (true_rate < atlas_threshold) {
          ++misses;
        }
      }
      sweep.add_row({strf("%.0f%%", 100 * checkpoint),
                     strf("%.0f%%", 100 * threshold), strf("%zu", stopped),
                     strf("%zu", false_stops), strf("%zu", misses),
                     strf("%.1f h", saved_hours),
                     strf("%.1f%%", 100.0 * saved_hours / total_hours)});
    }
  }
  sweep.print(std::cout);
  std::cout << "\npaper's design point (10%, 30%) sits where savings have "
               "plateaued and false stops stay 0 —\nearlier checkpoints add "
               "noise; higher thresholds begin rejecting borderline-usable "
               "libraries.\n";
  return 0;
}
