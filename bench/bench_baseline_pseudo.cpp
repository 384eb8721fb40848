// BASE-PSEUDO — the (pseudo)aligner baseline from the paper's conclusion:
// "other (pseudo)aligners should also provide the current mapping rate
// value (e.g. Salmon does not)".
//
// Compares the full STAR-like aligner against the kallisto/Salmon-style
// transcriptome pseudo-aligner on the same samples: speed, mapping rates
// per library class, and — the paper's actual point — whether the tool's
// telemetry supports the early-stopping optimization at all.

#include <chrono>
#include <iostream>

#include "align/pseudo.h"
#include "bench_common.h"
#include "core/report.h"

using namespace staratlas;
using namespace staratlas::bench;

int main() {
  const BenchWorld& w = bench_world();
  const PseudoAligner pseudo(w.r111, w.synthesizer->annotation());

  const ReadSet bulk =
      w.simulator->simulate(bulk_rna_profile(), 8'000, Rng(2001));
  const ReadSet sc =
      w.simulator->simulate(single_cell_profile(), 8'000, Rng(2002));
  std::vector<std::string> bulk_seqs;
  std::vector<std::string> sc_seqs;
  for (const auto& read : bulk.reads) bulk_seqs.push_back(read.sequence);
  for (const auto& read : sc.reads) sc_seqs.push_back(read.sequence);

  // Full aligner (release-111 index, 1 thread for a fair per-core number).
  EngineConfig config;
  config.num_threads = 1;
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                               config);
  const AlignmentRun star_bulk = engine.execute({.reads = &bulk});
  const AlignmentRun star_sc = engine.execute({.reads = &sc});

  const auto time_pseudo = [&](const std::vector<std::string>& seqs,
                               PseudoStats& stats) {
    const auto start = std::chrono::steady_clock::now();
    stats = pseudo.run(seqs);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  PseudoStats pseudo_bulk;
  PseudoStats pseudo_sc;
  const double pseudo_bulk_secs = time_pseudo(bulk_seqs, pseudo_bulk);
  const double pseudo_sc_secs = time_pseudo(sc_seqs, pseudo_sc);

  std::cout << "BASE-PSEUDO: full aligner vs transcriptome pseudo-aligner\n"
            << "(8000 reads per sample, release-111 index, 1 thread)\n\n";
  Table table({"tool", "bulk time", "single-cell time", "bulk map%",
               "sc map%", "progress telemetry", "early stop possible"});
  table.add_row({"staratlas aligner (STAR-like)",
                 strf("%.2f s", star_bulk.wall_seconds),
                 strf("%.2f s", star_sc.wall_seconds),
                 strf("%.1f", 100.0 * star_bulk.stats.mapped_rate()),
                 strf("%.1f", 100.0 * star_sc.stats.mapped_rate()),
                 "Log.progress.out stream", "yes (paper §III.B)"});
  table.add_row({"pseudo-aligner (Salmon-style)",
                 strf("%.2f s", pseudo_bulk_secs),
                 strf("%.2f s", pseudo_sc_secs),
                 strf("%.1f", 100.0 * pseudo_bulk.mapped_rate()),
                 strf("%.1f", 100.0 * pseudo_sc.mapped_rate()),
                 "none by default (paper's complaint)",
                 "only if rate were exposed"});
  table.print(std::cout);

  std::cout << "\nnotes:\n"
            << " * pseudo is "
            << strf("%.0fx", star_bulk.wall_seconds / pseudo_bulk_secs)
            << " faster per bulk read but counts only transcriptome reads\n"
               "   (its rate ~ exonic fraction; intronic/intergenic reads "
               "don't map),\n"
            << " * the bulk/single-cell separation ("
            << strf("%.0f vs %.0f%%", 100.0 * pseudo_bulk.mapped_rate(),
                    100.0 * pseudo_sc.mapped_rate())
            << ") survives, so the paper's early-stop rule WOULD transfer\n"
               "   to pseudo-aligners if they streamed a running rate — the "
               "paper's exact suggestion.\n";
  return 0;
}
