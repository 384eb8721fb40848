// Genome-release comparison (paper §III.A, Fig 3 in miniature): align the
// SAME sample against a release-108-style and a release-111-style toplevel
// index and compare execution time, index size and mapping rate.
//
// Run:  ./genome_release_comparison

#include <iostream>

#include "align/engine.h"
#include "align/run_request.h"
#include "genome/synthesizer.h"
#include "index/genome_index.h"
#include "sim/read_simulator.h"

using namespace staratlas;

int main() {
  GenomeSpec spec;
  spec.num_chromosomes = 2;
  spec.chromosome_length = 200'000;
  spec.genes_per_chromosome = 20;
  spec.seed = 23;
  const GenomeSynthesizer synthesizer(spec);

  const Assembly r108 = synthesizer.make_release108();
  const Assembly r111 = synthesizer.make_release111();

  // Reads are simulated from the (shared) chromosomes, so the same sample
  // is valid input against both releases — exactly the paper's setup.
  const ReadSimulator simulator(r111, synthesizer.annotation(),
                                synthesizer.repeat_regions());
  const ReadSet sample = simulator.simulate(bulk_rna_profile(), 6'000, Rng(5));
  std::cout << "sample: " << sample.size() << " reads ("
            << sample.fastq_bytes.str() << ")\n\n";

  double secs[2];
  double rates[2];
  int idx = 0;
  for (const Assembly* assembly : {&r108, &r111}) {
    const GenomeIndex index = GenomeIndex::build(*assembly);
    EngineConfig config;
    config.num_threads = 2;
    AlignmentEngine engine(index, &synthesizer.annotation(), config);
    const AlignmentRun run = engine.execute({.reads = &sample});
    secs[idx] = run.wall_seconds;
    rates[idx] = run.stats.mapped_rate();
    std::cout << "release " << assembly->release() << ":  FASTA "
              << assembly->fasta_size().str() << "  index "
              << index.stats().total().str() << "  scaffolds "
              << assembly->num_contigs() - 2 << "\n"
              << "  aligned in " << run.wall_seconds << "s  mapped "
              << 100.0 * run.stats.mapped_rate() << "%  (unique "
              << 100.0 * run.stats.unique_rate() << "%, windows scored "
              << run.stats.windows_scored << ")\n\n";
    ++idx;
  }
  std::cout << "speedup (r108 time / r111 time): " << secs[0] / secs[1]
            << "x   mapping-rate delta: "
            << 100.0 * (rates[0] - rates[1]) << " pp\n"
            << "(paper: >12x weighted average, <1% mean rate difference)\n";
  return 0;
}
