// Quickstart: the staratlas public API in one file.
//
// 1. Synthesize a genome + annotation (release-111-style toplevel).
// 2. Build the STAR-like suffix-array index.
// 3. Simulate a bulk RNA-seq sample.
// 4. Align it with GeneCounts and print STAR-style statistics.
//
// Run:  ./quickstart

#include <iostream>

#include "align/engine.h"
#include "align/run_request.h"
#include "genome/synthesizer.h"
#include "index/genome_index.h"
#include "sim/read_simulator.h"

using namespace staratlas;

int main() {
  // 1. Genome: 2 chromosomes, ~40 genes, plus the toplevel scaffolds of a
  //    release-111-style assembly.
  GenomeSpec spec;
  spec.num_chromosomes = 2;
  spec.chromosome_length = 200'000;
  spec.genes_per_chromosome = 20;
  spec.seed = 7;
  const GenomeSynthesizer synthesizer(spec);
  const Assembly assembly = synthesizer.make_release111();
  std::cout << "assembly: " << assembly.species() << " release "
            << assembly.release() << ", " << assembly.num_contigs()
            << " contigs, " << assembly.total_length() << " bp ("
            << assembly.fasta_size().str() << " as FASTA)\n";

  // 2. Index.
  const GenomeIndex index = GenomeIndex::build(assembly);
  const IndexStats istats = index.stats();
  std::cout << "index: " << istats.total().str() << " (text "
            << istats.text_bytes.str() << ", SA "
            << istats.suffix_array_bytes.str() << ", LUT k="
            << istats.prefix_lut_k << ")\n";

  // 3. A bulk RNA-seq sample.
  const ReadSimulator simulator(assembly, synthesizer.annotation(),
                                synthesizer.repeat_regions());
  const ReadSet reads =
      simulator.simulate(bulk_rna_profile(), 5'000, Rng(42));
  std::cout << "sample: " << reads.size() << " reads, "
            << reads.fastq_bytes.str() << " of FASTQ\n\n";

  // 4. Align with GeneCounts.
  EngineConfig config;
  config.num_threads = 2;
  AlignmentEngine engine(index, &synthesizer.annotation(), config);
  const AlignmentRun run = engine.execute({.reads = &reads});

  std::cout << "aligned " << run.stats.processed << " reads in "
            << run.wall_seconds << "s\n"
            << "  uniquely mapped: " << run.stats.unique << "\n"
            << "  multi-mapped:    " << run.stats.multi << "\n"
            << "  too many loci:   " << run.stats.too_many << "\n"
            << "  unmapped:        " << run.stats.unmapped << "\n"
            << "  mapping rate:    " << 100.0 * run.stats.mapped_rate()
            << "%\n\n";

  // Top-5 expressed genes from the GeneCounts table.
  std::vector<std::pair<u64, GeneId>> ranked;
  for (usize g = 0; g < run.gene_counts.per_gene.size(); ++g) {
    ranked.push_back({run.gene_counts.per_gene[g], static_cast<GeneId>(g)});
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::cout << "top expressed genes (unique reads):\n";
  for (usize i = 0; i < 5 && i < ranked.size(); ++i) {
    std::cout << "  "
              << synthesizer.annotation().gene(ranked[i].second).id << "  "
              << ranked[i].first << "\n";
  }
  std::cout << "\nGeneCounts buckets: noFeature="
            << run.gene_counts.n_no_feature
            << " ambiguous=" << run.gene_counts.n_ambiguous
            << " multimapping=" << run.gene_counts.n_multimapping
            << " unmapped=" << run.gene_counts.n_unmapped << "\n";
  return 0;
}
