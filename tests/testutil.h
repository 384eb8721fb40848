// Shared fixtures for staratlas tests: a small deterministic genome world
// (synthesizer + releases + index + simulator) built once per process, and
// the serial reference the engine's execution body is checked against.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "align/aligner.h"
#include "align/engine.h"
#include "align/gene_counts.h"
#include "align/junctions.h"
#include "align/sam.h"
#include "genome/synthesizer.h"
#include "index/genome_index.h"
#include "io/fastq.h"
#include "io/fastq_block.h"
#include "sim/read_simulator.h"

namespace staratlas::testing {

struct TestWorld {
  GenomeSpec spec;
  std::unique_ptr<GenomeSynthesizer> synthesizer;
  Assembly r108;
  Assembly r111;
  GenomeIndex index108;
  GenomeIndex index111;
  std::unique_ptr<ReadSimulator> simulator;
};

/// Writes an index to a real file in the test temp dir (mmap needs one)
/// and removes it on scope exit.
struct TempIndexFile {
  explicit TempIndexFile(const GenomeIndex& index)
      : path(::testing::TempDir() + "staratlas_index_" +
             std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
             ".bin") {
    index.save_file(path);
  }
  ~TempIndexFile() { std::remove(path.c_str()); }
  TempIndexFile(const TempIndexFile&) = delete;
  TempIndexFile& operator=(const TempIndexFile&) = delete;
  const std::string path;
};

/// Writes `bytes` verbatim to a file in the test temp dir (hand-made or
/// patched index files) and removes it on scope exit.
struct TempBytesFile {
  explicit TempBytesFile(const std::string& bytes)
      : path(::testing::TempDir() + "staratlas_bytes_" +
             std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
             ".bin") {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ~TempBytesFile() { std::remove(path.c_str()); }
  TempBytesFile(const TempBytesFile&) = delete;
  TempBytesFile& operator=(const TempBytesFile&) = delete;
  const std::string path;
};

/// A compact world (2 chromosomes x 120 kb) shared by alignment tests.
/// Built lazily once; cheap to reference afterwards.
inline const TestWorld& world() {
  static const TestWorld* instance = [] {
    auto* w = new TestWorld();
    w->spec.num_chromosomes = 2;
    w->spec.chromosome_length = 120'000;
    w->spec.genes_per_chromosome = 12;
    w->spec.seed = 1234;
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

/// A BatchSource over FASTQ bytes, cut into `batch_size`-read batches by
/// a FastqBlockReader, as the CLI streams its file. `fastq` must outlive
/// the source.
inline BatchSource fastq_batches(std::string_view fastq, usize batch_size) {
  auto reader = std::make_shared<FastqBlockReader>(fastq);
  return [reader, batch_size](ReadBatch& batch) {
    return reader->read_batch(batch, batch_size) > 0;
  };
}

/// `reads` rendered as FASTQ text, as a client submits them.
inline std::string fastq_text(const ReadSet& reads) {
  std::ostringstream out;
  write_fastq(out, reads.reads);
  return out.str();
}

/// The oracle for AlignmentEngine::execute over `reads`: per-read
/// Aligner::align (the documented reference for the engine's batched
/// search) plus GeneCounter and JunctionCollector, one read at a time on
/// the calling thread, sharing no execution code with the engine. Only the
/// first `processed` reads are aligned — the shape of a run that stopped
/// there, whose later outcomes stay kUnmapped. With `sam` set, it also
/// renders those reads through SamWriter (header included).
inline AlignmentRun serial_reference(const GenomeIndex& index,
                                     const Annotation* annotation,
                                     const EngineConfig& config,
                                     const ReadSet& reads,
                                     usize processed = ~usize{0},
                                     std::string* sam = nullptr) {
  const usize n = std::min(processed, reads.size());
  std::ostringstream sam_stream;
  std::optional<SamWriter> writer;
  if (sam != nullptr) writer.emplace(sam_stream, index);
  AlignmentRun run;
  run.outcomes.assign(reads.size(), ReadOutcome::kUnmapped);
  std::optional<GeneCounter> counter;
  if (config.quant_gene_counts) {
    counter.emplace(*annotation, index);
    run.gene_counts = GeneCountsTable(annotation->num_genes());
  }
  JunctionCollector junctions(index, config.junction_min_intron);
  const Aligner aligner(index, config.params);
  AlignWorkspace ws;
  ReadAlignment result;
  for (usize r = 0; r < n; ++r) {
    aligner.align(reads.reads[r].sequence, ws, run.stats, result);
    run.stats.add_outcome(result.outcome);
    run.outcomes[r] = result.outcome;
    if (counter) counter->count(result, run.gene_counts);
    if (config.collect_junctions) junctions.add(result);
    if (writer) writer->write_read(reads.reads[r], result);
  }
  if (sam != nullptr) *sam = sam_stream.str();
  if (config.collect_junctions) run.junctions = junctions.junctions();
  run.aborted = n < reads.size();
  return run;
}

/// Outcomes, stats (work counters included), gene counts and junctions of
/// two runs are identical.
inline void expect_identical_runs(const AlignmentRun& a,
                                  const AlignmentRun& b,
                                  const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (usize i = 0; i < a.outcomes.size(); ++i) {
    ASSERT_EQ(a.outcomes[i], b.outcomes[i]) << "read " << i;
  }
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.stats.processed, b.stats.processed);
  EXPECT_EQ(a.stats.unique, b.stats.unique);
  EXPECT_EQ(a.stats.multi, b.stats.multi);
  EXPECT_EQ(a.stats.too_many, b.stats.too_many);
  EXPECT_EQ(a.stats.unmapped, b.stats.unmapped);
  EXPECT_EQ(a.stats.seeds_generated, b.stats.seeds_generated);
  EXPECT_EQ(a.stats.windows_scored, b.stats.windows_scored);
  EXPECT_EQ(a.stats.bases_compared, b.stats.bases_compared);

  ASSERT_EQ(a.gene_counts.per_gene.size(), b.gene_counts.per_gene.size());
  for (usize g = 0; g < a.gene_counts.per_gene.size(); ++g) {
    ASSERT_EQ(a.gene_counts.per_gene[g], b.gene_counts.per_gene[g])
        << "gene " << g;
  }
  EXPECT_EQ(a.gene_counts.n_unmapped, b.gene_counts.n_unmapped);
  EXPECT_EQ(a.gene_counts.n_multimapping, b.gene_counts.n_multimapping);
  EXPECT_EQ(a.gene_counts.n_no_feature, b.gene_counts.n_no_feature);
  EXPECT_EQ(a.gene_counts.n_ambiguous, b.gene_counts.n_ambiguous);

  ASSERT_EQ(a.junctions.size(), b.junctions.size());
  for (usize j = 0; j < a.junctions.size(); ++j) {
    EXPECT_EQ(a.junctions[j].contig, b.junctions[j].contig) << "junction " << j;
    EXPECT_EQ(a.junctions[j].intron_start, b.junctions[j].intron_start)
        << "junction " << j;
    EXPECT_EQ(a.junctions[j].intron_end, b.junctions[j].intron_end)
        << "junction " << j;
    EXPECT_EQ(a.junctions[j].unique_reads, b.junctions[j].unique_reads)
        << "junction " << j;
    EXPECT_EQ(a.junctions[j].multi_reads, b.junctions[j].multi_reads)
        << "junction " << j;
    EXPECT_EQ(a.junctions[j].max_overhang, b.junctions[j].max_overhang)
        << "junction " << j;
  }
}

}  // namespace staratlas::testing
