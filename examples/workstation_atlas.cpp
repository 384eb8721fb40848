// Workstation atlas (paper's conclusion: the optimizations apply "outside
// the cloud environment (HPC or workstations)"): process a small batch of
// SRA accessions end to end on this machine — prefetch, fasterq-dump,
// alignment with early stopping, GeneCounts — then DESeq2-normalize the
// accepted samples.
//
// Run:  ./workstation_atlas

#include <iostream>

#include "core/workstation.h"
#include "genome/synthesizer.h"
#include "index/genome_index.h"

using namespace staratlas;

int main() {
  GenomeSpec spec;
  spec.num_chromosomes = 2;
  spec.chromosome_length = 200'000;
  spec.genes_per_chromosome = 20;
  spec.seed = 33;
  const GenomeSynthesizer synthesizer(spec);
  const Assembly assembly = synthesizer.make_release111();
  const GenomeIndex index = GenomeIndex::build(assembly);

  CatalogSpec catalog_spec;
  catalog_spec.num_samples = 10;
  catalog_spec.single_cell_fraction = 0.2;
  catalog_spec.reads_at_mean = 3'000;
  catalog_spec.min_reads = 1'500;
  catalog_spec.seed = 19;
  auto simulator = std::make_shared<ReadSimulator>(
      assembly, synthesizer.annotation(), synthesizer.repeat_regions());
  SraRepository repository(make_catalog(catalog_spec), simulator);

  std::vector<std::string> accessions;
  for (const auto& sample : repository.catalog()) {
    accessions.push_back(sample.accession);
  }

  PipelineConfig config;
  config.engine.num_threads = 4;
  config.engine.progress_check_interval = 200;
  const WorkstationReport report = run_workstation_batch(
      index, synthesizer.annotation(), repository, accessions, config);

  std::cout << "processed " << report.samples.size() << " accessions in "
            << report.align_wall_seconds << "s of alignment:\n";
  for (const AccessionResult& sample : report.samples) {
    std::cout << "  " << sample.accession << "  "
              << library_type_name(sample.library_type) << "  ";
    if (sample.early_stop.stopped) {
      std::cout << "EARLY-STOPPED at "
                << 100.0 * sample.early_stop.at_fraction << "% (rate "
                << 100.0 * sample.early_stop.observed_rate << "%)\n";
    } else {
      std::cout << "mapped " << 100.0 * sample.stats.mapped_rate() << "%"
                << (sample.accepted ? "" : " [rejected]") << "\n";
    }
  }
  std::cout << "\natlas content: " << report.accepted
            << " accepted samples x " << report.counts.num_genes()
            << " genes\n";
  if (!report.size_factors.empty()) {
    std::cout << "DESeq2 size factors:";
    for (double factor : report.size_factors) {
      std::cout << " " << factor;
    }
    std::cout << "\n";
  }
  return 0;
}
