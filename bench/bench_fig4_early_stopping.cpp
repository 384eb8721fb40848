// FIG4 — "Time savings due to early stopping feature" (paper §III.B).
//
// Two-level reproduction:
//  1. CALIBRATION (real alignment): a panel of bulk and single-cell
//     samples is aligned for real; the measured mapping rates (final and
//     at the 10% checkpoint) validate the early-stop separation and refit
//     the MapRateModel.
//  2. CORPUS ACCOUNTING (paper scale): the paper's corpus of 1000
//     alignments (38 single-cell) is costed with the Fig 4 anchor of
//     35.3 STAR-seconds per FASTQ GiB on r6a.4xlarge; the early-stopping
//     rule (stop at 10% of reads if mapped < 30%) is applied per sample
//     using the calibrated model. Targets: 38 early stops, 30.4 h saved
//     of 155.8 h total (19.5%).

#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "align/early_stopping.h"
#include "core/maprate_model.h"
#include "core/report.h"
#include "sim/catalog.h"

using namespace staratlas;
using namespace staratlas::bench;

int main() {
  const BenchWorld& w = bench_world();
  const EarlyStopPolicy policy;  // paper defaults: 10% checkpoint, 30% rate

  // ---------------- 1. Calibration panel (real alignment) ----------------
  std::cout << "FIG4 part 1: real-alignment calibration panel\n";
  Table panel({"sample", "type", "reads", "map@10%", "map@final",
               "early-stop?"});
  std::vector<double> bulk_rates;
  std::vector<double> sc_rates;
  usize panel_stops = 0;
  usize panel_sc = 0;
  for (usize i = 0; i < 14; ++i) {
    const bool single_cell = i % 3 == 2;  // 4-5 of 14
    const LibraryProfile profile =
        single_cell ? single_cell_profile() : bulk_rna_profile();
    const ReadSet reads = w.simulator->simulate(profile, 3'000, Rng(400 + i));

    // Run WITHOUT aborting so we observe both checkpoint and final rate.
    double rate_at_checkpoint = -1.0;
    EngineConfig config;
    config.num_threads = 4;
    config.progress_check_interval = reads.size() / 20;
    AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                                 config);
    const AlignmentRun run = engine.execute(
        {.reads = &reads, .callback = [&](const ProgressSnapshot& snap) {
           if (rate_at_checkpoint < 0.0 &&
               snap.fraction_processed() >= policy.checkpoint_fraction) {
             rate_at_checkpoint = snap.mapped_rate();
           }
           return EngineCommand::kContinue;
         }});
    const double final_rate = run.stats.mapped_rate();
    const bool would_stop = early_stop_decision(policy, rate_at_checkpoint);
    panel_stops += would_stop ? 1 : 0;
    panel_sc += single_cell ? 1 : 0;
    (single_cell ? sc_rates : bulk_rates).push_back(final_rate);
    panel.add_row(
        {strf("panel-%02zu", i), single_cell ? "single-cell" : "bulk",
         strf("%zu", reads.size()), strf("%.1f%%", 100.0 * rate_at_checkpoint),
         strf("%.1f%%", 100.0 * final_rate), would_stop ? "STOP" : "continue"});
  }
  panel.print(std::cout);
  std::cout << "panel: " << panel_stops << "/" << panel_sc
            << " single-cell samples flagged, 0 bulk false-positives "
               "expected\n\n";

  MapRateModel model;
  model.calibrate(bulk_rates, sc_rates);
  std::cout << "calibrated: bulk " << strf("%.1f%% +/- %.1f", 100 * model.bulk_mean, 100 * model.bulk_sd)
            << ", single-cell "
            << strf("%.1f%% +/- %.1f", 100 * model.single_cell_mean, 100 * model.single_cell_sd)
            << "\n\n";

  // ---------------- 2. Paper-scale corpus accounting ----------------
  CatalogSpec corpus;
  corpus.num_samples = 1'000;
  corpus.single_cell_fraction = 0.038;  // 38 of 1000
  corpus.seed = 88;
  const auto catalog = make_catalog(corpus);

  Rng noise(1234);
  double total_hours = 0.0;
  double spent_hours = 0.0;
  double saved_hours = 0.0;
  usize stopped = 0;
  struct StoppedRun {
    double full_hours;
    double spent_hours;
  };
  std::vector<StoppedRun> stopped_runs;

  for (const auto& sample : catalog) {
    const double full_hours =
        sample.fastq_bytes.gib() * kPaperAlignSecsPerGib / 3600.0;
    total_hours += full_hours;
    Rng rate_rng = Rng(sample.seed).fork("true_rate");
    const double true_rate = model.sample_true_rate(sample.type, rate_rng);
    const double observed = model.checkpoint_observation(true_rate, noise);
    if (early_stop_decision(policy, observed)) {
      ++stopped;
      const double spent = full_hours * policy.checkpoint_fraction;
      spent_hours += spent;
      saved_hours += full_hours - spent;
      stopped_runs.push_back({full_hours, spent});
    } else {
      spent_hours += full_hours;
    }
  }

  std::cout << "FIG4 part 2: corpus of " << catalog.size()
            << " alignments (early stop at "
            << strf("%.0f%%", 100 * policy.checkpoint_fraction)
            << " of reads if mapped < "
            << strf("%.0f%%", 100 * policy.min_mapped_rate) << ")\n";
  Table result({"metric", "paper", "measured"});
  result.add_row({"total STAR hours (no early stop)", "155.8 h",
                  strf("%.1f h", total_hours)});
  result.add_row({"alignments early-stopped", "38 / 1000",
                  strf("%zu / %zu", stopped, catalog.size())});
  result.add_row({"hours saved", "30.4 h", strf("%.1f h", saved_hours)});
  result.add_row({"reduction in STAR execution time", "19.5%",
                  strf("%.1f%%", 100.0 * saved_hours / total_hours)});
  result.print(std::cout);

  // Fig 4's bars: the largest early-stopped runs, spent vs avoided time.
  std::sort(stopped_runs.begin(), stopped_runs.end(),
            [](const StoppedRun& a, const StoppedRun& b) {
              return a.full_hours > b.full_hours;
            });
  std::cout << "\nlargest early-stopped runs (yellow bar = avoided compute):\n";
  Table bars({"rank", "full align (h)", "spent (h)", "avoided (h)"});
  for (usize i = 0; i < std::min<usize>(10, stopped_runs.size()); ++i) {
    bars.add_row({strf("%zu", i + 1), strf("%.2f", stopped_runs[i].full_hours),
                  strf("%.2f", stopped_runs[i].spent_hours),
                  strf("%.2f", stopped_runs[i].full_hours -
                                   stopped_runs[i].spent_hours)});
  }
  bars.print(std::cout);
  return 0;
}
