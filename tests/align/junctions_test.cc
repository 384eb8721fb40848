#include "align/junctions.h"

#include <gtest/gtest.h>

#include <sstream>

#include "align/engine.h"
#include "align/run_request.h"
#include "common/error.h"
#include "sim/read_simulator.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

ReadAlignment alignment_with(std::vector<AlignedSegment> segments,
                             ReadOutcome outcome) {
  ReadAlignment alignment;
  alignment.outcome = outcome;
  AlignmentHit hit;
  hit.segments.assign(segments.begin(), segments.end());
  hit.text_pos = segments.front().text_start;
  alignment.hits.push_back(hit);
  return alignment;
}

TEST(JunctionCollector, RecordsSplicedGap) {
  const auto& w = world();
  JunctionCollector collector(w.index111);
  collector.add(alignment_with({{0, 1'000, 50}, {50, 1'550, 50}},
                               ReadOutcome::kUniqueMapped));
  const auto junctions = collector.junctions();
  ASSERT_EQ(junctions.size(), 1u);
  EXPECT_EQ(junctions[0].contig, 0u);
  EXPECT_EQ(junctions[0].intron_start, 1'050u);
  EXPECT_EQ(junctions[0].intron_end, 1'550u);
  EXPECT_EQ(junctions[0].intron_length(), 500u);
  EXPECT_EQ(junctions[0].unique_reads, 1u);
  EXPECT_EQ(junctions[0].multi_reads, 0u);
  EXPECT_EQ(junctions[0].max_overhang, 50u);
}

TEST(JunctionCollector, SmallGapIsDeletionNotJunction) {
  const auto& w = world();
  JunctionCollector collector(w.index111, /*min_intron=*/21);
  collector.add(alignment_with({{0, 1'000, 50}, {50, 1'060, 50}},
                               ReadOutcome::kUniqueMapped));
  EXPECT_EQ(collector.size(), 0u);
}

TEST(JunctionCollector, MultiMapperCountsSeparately) {
  const auto& w = world();
  JunctionCollector collector(w.index111);
  collector.add(alignment_with({{0, 1'000, 50}, {50, 1'550, 50}},
                               ReadOutcome::kMultiMapped));
  collector.add(alignment_with({{0, 1'000, 50}, {50, 1'550, 50}},
                               ReadOutcome::kUniqueMapped));
  const auto junctions = collector.junctions();
  ASSERT_EQ(junctions.size(), 1u);
  EXPECT_EQ(junctions[0].unique_reads, 1u);
  EXPECT_EQ(junctions[0].multi_reads, 1u);
}

TEST(JunctionCollector, UnmappedIgnored) {
  const auto& w = world();
  JunctionCollector collector(w.index111);
  ReadAlignment unmapped;
  collector.add(unmapped);
  EXPECT_EQ(collector.size(), 0u);
}

TEST(JunctionCollector, MergeAccumulates) {
  const auto& w = world();
  JunctionCollector a(w.index111);
  JunctionCollector b(w.index111);
  a.add(alignment_with({{0, 1'000, 40}, {40, 1'540, 60}},
                       ReadOutcome::kUniqueMapped));
  b.add(alignment_with({{0, 1'000, 40}, {40, 1'540, 60}},
                       ReadOutcome::kUniqueMapped));
  b.add(alignment_with({{0, 5'000, 50}, {50, 6'000, 50}},
                       ReadOutcome::kUniqueMapped));
  a += b;
  const auto junctions = a.junctions();
  ASSERT_EQ(junctions.size(), 2u);
  EXPECT_EQ(junctions[0].unique_reads, 2u);
  EXPECT_EQ(junctions[1].unique_reads, 1u);
}

TEST(JunctionCollector, MergeRejectsDifferentGenomes) {
  // Regression: += used to merge tables from collectors built against
  // different indexes, silently misaligning contig ids so write_tsv
  // printed the wrong contig names.
  const auto& w = world();
  JunctionCollector on_111(w.index111);
  JunctionCollector on_108(w.index108);
  EXPECT_THROW(on_111 += on_108, InternalError);

  JunctionCollector wider_introns(w.index111, 50);
  EXPECT_THROW(on_111 += wider_introns, InternalError);
}

TEST(JunctionCollector, MergeAcceptsSameGenomeAcrossLoads) {
  // Cross-process shards reference separately loaded copies of the same
  // index file: different objects, equal fingerprints, merge allowed.
  const auto& w = world();
  std::stringstream file;
  w.index111.save(file);
  const GenomeIndex copy = GenomeIndex::load(file);
  ASSERT_NE(&copy, &w.index111);
  EXPECT_EQ(copy.fingerprint(), w.index111.fingerprint());
  EXPECT_NE(copy.fingerprint(), w.index108.fingerprint());

  JunctionCollector a(w.index111);
  JunctionCollector b(copy);
  a.add(alignment_with({{0, 1'000, 40}, {40, 1'540, 60}},
                       ReadOutcome::kUniqueMapped));
  b.add(alignment_with({{0, 1'000, 40}, {40, 1'540, 60}},
                       ReadOutcome::kUniqueMapped));
  EXPECT_NO_THROW(a += b);
  ASSERT_EQ(a.junctions().size(), 1u);
  EXPECT_EQ(a.junctions()[0].unique_reads, 2u);
}

TEST(JunctionCollector, TsvFormat) {
  const auto& w = world();
  JunctionCollector collector(w.index111);
  collector.add(alignment_with({{0, 1'000, 50}, {50, 1'550, 50}},
                               ReadOutcome::kUniqueMapped));
  std::ostringstream out;
  collector.write_tsv(out);
  EXPECT_EQ(out.str(), "1\t1051\t1550\t0\t0\t0\t1\t0\t50\n");
}

// Integration: real exonic reads produce junctions matching the intron
// structure of the annotation.
TEST(JunctionCollector, EngineCollectsRealJunctions) {
  const auto& w = world();
  EngineConfig config;
  config.collect_junctions = true;
  config.num_threads = 2;
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                               config);
  const ReadSet reads =
      w.simulator->simulate(bulk_rna_profile(), 4'000, Rng(71));
  const AlignmentRun run = engine.execute({.reads = &reads});
  ASSERT_FALSE(run.junctions.empty());

  // The dominant share of junction support must coincide with annotated
  // introns (exon_i.end .. exon_{i+1}.start) on chromosomes. A small
  // remainder is expected: hits on scaffold copies of genes (scaffold
  // coordinates have no annotation) and occasional spurious stitches,
  // both of which real STAR exhibits and filters downstream.
  const Annotation& annotation = w.synthesizer->annotation();
  u64 annotated_support = 0;
  u64 total_support = 0;
  for (const Junction& junction : run.junctions) {
    const u64 support = junction.unique_reads + junction.multi_reads;
    total_support += support;
    for (const Gene& gene : annotation.genes()) {
      if (gene.contig != junction.contig) continue;
      const std::string& chrom = w.r111.contig(gene.contig).sequence;
      for (usize e = 0; e + 1 < gene.exons.size(); ++e) {
        // Compare in the same canonical (leftmost-shifted) space the
        // collector reports in.
        const u64 norm_start = left_shift_intron(
            chrom, gene.exons[e].end, gene.exons[e + 1].start);
        const u64 intron_len = gene.exons[e + 1].start - gene.exons[e].end;
        if (norm_start == junction.intron_start &&
            norm_start + intron_len == junction.intron_end) {
          annotated_support += support;
        }
      }
    }
  }
  EXPECT_GT(total_support, 100u);
  EXPECT_GT(static_cast<double>(annotated_support),
            0.85 * static_cast<double>(total_support));
}

TEST(JunctionCollector, DisabledByDefault) {
  const auto& w = world();
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), {});
  const ReadSet reads = w.simulator->simulate(bulk_rna_profile(), 500, Rng(72));
  const AlignmentRun run = engine.execute({.reads = &reads});
  EXPECT_TRUE(run.junctions.empty());
}

}  // namespace
}  // namespace staratlas
