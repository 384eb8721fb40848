// Early-stopping demo (paper §III.B): align a bulk sample and a
// single-cell sample with the EarlyStopController attached and watch the
// Log.progress.out-style telemetry drive the abort decision.
//
// Run:  ./early_stopping_demo

#include <iostream>

#include "align/run_request.h"
#include "core/pipeline.h"
#include "genome/synthesizer.h"
#include "index/genome_index.h"
#include "sim/read_simulator.h"

using namespace staratlas;

namespace {

void run_sample(const GenomeIndex& index, const Annotation& annotation,
                const ReadSimulator& simulator, const LibraryProfile& profile,
                u64 seed) {
  const ReadSet reads = simulator.simulate(profile, 8'000, Rng(seed));

  EngineConfig config;
  config.num_threads = 2;
  config.progress_check_interval = reads.size() / 50;
  AlignmentEngine engine(index, &annotation, config);

  EarlyStopPolicy policy;  // paper defaults: stop at 10% if <30% mapped
  EarlyStopController controller(policy);
  const AlignmentRun run =
      engine.execute({.reads = &reads, .callback = controller.callback()});

  std::cout << "=== " << profile.name << " ("
            << library_type_name(profile.type) << ") ===\n";
  std::cout << run.progress_log.render();
  const EarlyStopDecision& decision = controller.decision();
  if (decision.stopped) {
    std::cout << "EARLY STOP at " << 100.0 * decision.at_fraction
              << "% of reads: mapped rate "
              << 100.0 * decision.observed_rate << "% < "
              << 100.0 * policy.min_mapped_rate << "% threshold\n"
              << "  -> saved aligning "
              << reads.size() - run.stats.processed << " of " << reads.size()
              << " reads ("
              << 100.0 * (1.0 - static_cast<double>(run.stats.processed) /
                                    static_cast<double>(reads.size()))
              << "% of the alignment work)\n\n";
  } else {
    std::cout << "completed: final mapped rate "
              << 100.0 * run.stats.mapped_rate() << "% (unique "
              << 100.0 * run.stats.unique_rate() << "%)\n\n";
  }
}

}  // namespace

int main() {
  GenomeSpec spec;
  spec.num_chromosomes = 2;
  spec.chromosome_length = 200'000;
  spec.genes_per_chromosome = 20;
  spec.seed = 11;
  const GenomeSynthesizer synthesizer(spec);
  const Assembly assembly = synthesizer.make_release111();
  const GenomeIndex index = GenomeIndex::build(assembly);
  const ReadSimulator simulator(assembly, synthesizer.annotation(),
                                synthesizer.repeat_regions());

  run_sample(index, synthesizer.annotation(), simulator, bulk_rna_profile(), 1);
  run_sample(index, synthesizer.annotation(), simulator, single_cell_profile(), 2);
  return 0;
}
