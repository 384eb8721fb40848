// v3 (raw text) vs v4 (2-bit packed text) outcome parity: the packed
// representation must change memory footprint, never results. The whole
// suite runs again under STARATLAS_FORCE_SCALAR=1 in the align_force_scalar
// ctest job, which pins the packed LCP and strip kernels to their scalar
// references — so raw/packed parity is enforced at every SIMD level.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "align/engine.h"
#include "align/run_request.h"
#include "common/rng.h"
#include "genome/model.h"
#include "index/genome_index.h"
#include "index/packed_text.h"
#include "sim/library_profile.h"
#include "sim/read_simulator.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

struct TempIndexFile {
  explicit TempIndexFile(const GenomeIndex& index, u32 version)
      : path(::testing::TempDir() + "staratlas_parity_" +
             std::to_string(version) + "_" +
             std::to_string(reinterpret_cast<uintptr_t>(this)) + ".bin") {
    index.save_file(path, version);
  }
  ~TempIndexFile() { std::remove(path.c_str()); }
  const std::string path;
};

/// Loads the shared test index as v4, mmap when the platform has it (the
/// production attach path), stream otherwise.
const GenomeIndex& packed_index() {
  static const GenomeIndex* instance = [] {
    const TempIndexFile file(world().index111, GenomeIndex::kVersionV4);
    const IndexLoadMode mode = MappedFile::supported() ? IndexLoadMode::kMmap
                                                       : IndexLoadMode::kStream;
    return new GenomeIndex(GenomeIndex::load_file(file.path, mode));
  }();
  return *instance;
}

TEST(PackedParity, PackedLoadReportsPackedStats) {
  const GenomeIndex& packed = packed_index();
  const GenomeIndex& raw = world().index111;
  EXPECT_TRUE(packed.packed_text());
  EXPECT_TRUE(packed.text().empty());
  EXPECT_EQ(packed.text_size(), raw.text().size());
  EXPECT_EQ(packed.text_substr(0, raw.text().size()), raw.text());

  const IndexStats ps = packed.stats();
  const IndexStats rs = raw.stats();
  EXPECT_TRUE(ps.packed_text);
  EXPECT_FALSE(rs.packed_text);
  EXPECT_EQ(ps.genome_length, rs.genome_length);
  EXPECT_EQ(ps.suffix_array_bytes.bytes(), rs.suffix_array_bytes.bytes());
  // The headline: resident text shrinks ~4x (paged overlay keeps the
  // exception cost near zero at realistic N densities).
  const double ratio = static_cast<double>(rs.text_bytes.bytes()) /
                       static_cast<double>(ps.text_bytes.bytes());
  EXPECT_GT(ratio, 3.5);
  EXPECT_LE(ratio, 4.0);
}

TEST(PackedParity, MmpIdenticalOnRandomQueries) {
  const GenomeIndex& packed = packed_index();
  const GenomeIndex& raw = world().index111;
  const std::string& chrom = world().r111.contig(0).sequence;

  Rng rng(31);
  static const char kBases[] = "ACGTN";
  std::vector<std::string> queries = {"", "A", "NNNNN", "ACGT#ACGT"};
  for (int i = 0; i < 200; ++i) {
    const u64 len = 1 + rng.uniform(80);
    std::string q = chrom.substr(rng.uniform(chrom.size() - len), len);
    for (auto& c : q) {
      if (rng.uniform(100) < 5) c = kBases[rng.uniform(5)];
    }
    queries.push_back(std::move(q));
  }
  for (const std::string& q : queries) {
    const MmpResult a = raw.mmp(q);
    const MmpResult b = packed.mmp(q);
    EXPECT_EQ(a.length, b.length) << "query " << q;
    EXPECT_EQ(a.interval.lo, b.interval.lo) << "query " << q;
    EXPECT_EQ(a.interval.hi, b.interval.hi) << "query " << q;
  }
}

TEST(PackedParity, MmpBatchIdentical) {
  const GenomeIndex& packed = packed_index();
  const GenomeIndex& raw = world().index111;
  const std::string& chrom = world().r111.contig(1).sequence;

  Rng rng(37);
  std::vector<std::string> storage;
  for (int i = 0; i < 150; ++i) {
    const u64 len = 20 + rng.uniform(60);
    std::string q = chrom.substr(rng.uniform(chrom.size() - len), len);
    if (rng.uniform(4) == 0) q[rng.uniform(q.size())] = 'N';
    storage.push_back(std::move(q));
  }
  std::vector<std::string_view> queries(storage.begin(), storage.end());
  std::vector<MmpResult> raw_results(queries.size());
  std::vector<MmpResult> packed_results(queries.size());
  raw.mmp_batch(queries, raw_results);
  packed.mmp_batch(queries, packed_results);
  for (usize i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(raw_results[i].length, packed_results[i].length) << "query " << i;
    EXPECT_EQ(raw_results[i].interval.lo, packed_results[i].interval.lo)
        << "query " << i;
    EXPECT_EQ(raw_results[i].interval.hi, packed_results[i].interval.hi)
        << "query " << i;
  }
}

TEST(PackedParity, AlignmentRunBitIdentical) {
  const auto& w = world();
  const GenomeIndex& packed = packed_index();
  const ReadSet reads = w.simulator->simulate(bulk_rna_profile(), 400, Rng(91));

  EngineConfig config;
  config.num_threads = 2;
  config.chunk_size = 32;
  config.collect_junctions = true;

  // The raw side is the serial per-read reference, so the engine's
  // batched path over the packed text is checked against an oracle that
  // shares neither its execution code nor its genome representation.
  const AlignmentRun a = testing::serial_reference(
      w.index111, &w.synthesizer->annotation(), config, reads);
  AlignmentEngine packed_engine(packed, &w.synthesizer->annotation(), config);
  const AlignmentRun b = packed_engine.execute({.reads = &reads});

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (usize i = 0; i < a.outcomes.size(); ++i) {
    ASSERT_EQ(a.outcomes[i], b.outcomes[i]) << "read " << i;
  }
  EXPECT_EQ(a.stats.unique, b.stats.unique);
  EXPECT_EQ(a.stats.multi, b.stats.multi);
  EXPECT_EQ(a.stats.unmapped, b.stats.unmapped);
  EXPECT_EQ(a.stats.seeds_generated, b.stats.seeds_generated);
  EXPECT_EQ(a.stats.windows_scored, b.stats.windows_scored);
  // The work counters are the strongest claim: the packed compare paths
  // must examine exactly the bases the raw paths examine.
  EXPECT_EQ(a.stats.bases_compared, b.stats.bases_compared);

  ASSERT_EQ(a.junctions.size(), b.junctions.size());
  for (usize j = 0; j < a.junctions.size(); ++j) {
    EXPECT_EQ(a.junctions[j].contig, b.junctions[j].contig) << "junction " << j;
    EXPECT_EQ(a.junctions[j].intron_start, b.junctions[j].intron_start)
        << "junction " << j;
    EXPECT_EQ(a.junctions[j].intron_end, b.junctions[j].intron_end)
        << "junction " << j;
    EXPECT_EQ(a.junctions[j].unique_reads, b.junctions[j].unique_reads)
        << "junction " << j;
  }
}

TEST(PackedParity, BlockNarrowMatchesPerCharNarrow) {
  // extend_interval_packed_block must equal len iterated per-char
  // extend_interval steps: the final interval when all len characters
  // match, the empty interval when the walk dies anywhere inside the
  // block. Checked at every depth of real walks so both outcomes occur.
  const GenomeIndex& packed = packed_index();
  const std::string& chrom = world().r111.contig(0).sequence;

  Rng rng(53);
  for (int iter = 0; iter < 60; ++iter) {
    const u64 len = 24 + rng.uniform(64);
    std::string q = chrom.substr(rng.uniform(chrom.size() - len), len);
    if (rng.uniform(2) == 0) {
      q[rng.uniform(q.size())] = "ACGTN"[rng.uniform(5)];
    }
    u64 qc[512 / 32 + 1];
    u64 qe[512 / 64 + 1];
    ASSERT_TRUE(pack_query(q, qc, qe));

    SaInterval interval{0, static_cast<u32>(packed.suffix_array().size())};
    usize depth = 0;
    while (depth < q.size() && !interval.empty()) {
      const u32 block_len = static_cast<u32>(
          std::min<u64>(kPackedBasesPerWord, q.size() - depth));
      const SaInterval block =
          packed.extend_interval_packed_block(interval, depth, qc, qe,
                                              block_len);
      SaInterval expect = interval;
      for (u32 j = 0; j < block_len && !expect.empty(); ++j) {
        expect = packed.extend_interval(expect, depth + j, q[depth + j]);
      }
      ASSERT_EQ(block.empty(), expect.empty())
          << "query " << q << " depth " << depth;
      if (!expect.empty()) {
        ASSERT_EQ(block.lo, expect.lo) << "query " << q << " depth " << depth;
        ASSERT_EQ(block.hi, expect.hi) << "query " << q << " depth " << depth;
      }
      interval = block;
      depth += block_len;
    }
  }
}

TEST(PackedParity, WideBlockNarrowingOnRepetitiveGenome) {
  // A highly repetitive genome keeps SA intervals wider than the batch
  // walker's direct-scan threshold (kT = 24) deep into every walk, so
  // the packed index narrows through many consecutive wide-block
  // equal-range passes — including blocks that come up empty mid-walk
  // (the per-char fallback) — before the direct scan takes over. Results
  // must match the raw-text index exactly. Runs under the
  // align_force_scalar job too, pinning the scalar packed kernels.
  const std::string motif = "ACGTTGCAACGGATCCTAGG";
  Rng rng(77);
  std::string seq;
  for (int rep = 0; rep < 600; ++rep) {
    seq += motif;
    if (rng.uniform(7) == 0) {
      seq[seq.size() - 1 - rng.uniform(motif.size())] =
          "ACGTN"[rng.uniform(5)];
    }
  }
  std::vector<Contig> contigs(1);
  contigs[0].name = "rep1";
  contigs[0].sequence = seq;
  const Assembly assembly("Repetitiva synthetica", 1,
                          AssemblyType::kToplevel, std::move(contigs));
  const GenomeIndex raw = GenomeIndex::build(assembly);
  const TempIndexFile file(raw, GenomeIndex::kVersionV4);
  const GenomeIndex packed =
      GenomeIndex::load_file(file.path, IndexLoadMode::kStream);
  ASSERT_TRUE(packed.packed_text());

  std::vector<std::string> storage;
  for (int i = 0; i < 250; ++i) {
    const u64 len = 40 + rng.uniform(200);
    std::string q = seq.substr(rng.uniform(seq.size() - len), len);
    // Mutated tails end walks at varied depths, exercising the
    // empty-block fallback at many interval widths.
    if (rng.uniform(3) == 0) {
      q[q.size() - 1 - rng.uniform(std::min<u64>(8, q.size()))] =
          "ACGTN"[rng.uniform(5)];
    }
    storage.push_back(std::move(q));
  }
  storage.push_back(motif + motif + motif);  // huge interval at full depth
  storage.push_back(std::string(200, 'A'));  // absent: dies immediately

  for (const std::string& q : storage) {
    const MmpResult a = raw.mmp(q);
    const MmpResult b = packed.mmp(q);
    ASSERT_EQ(a.length, b.length) << "query " << q;
    ASSERT_EQ(a.interval.lo, b.interval.lo) << "query " << q;
    ASSERT_EQ(a.interval.hi, b.interval.hi) << "query " << q;
  }

  std::vector<std::string_view> queries(storage.begin(), storage.end());
  std::vector<MmpResult> raw_results(queries.size());
  std::vector<MmpResult> packed_results(queries.size());
  raw.mmp_batch(queries, raw_results);
  packed.mmp_batch(queries, packed_results);
  for (usize i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(raw_results[i].length, packed_results[i].length) << "query " << i;
    ASSERT_EQ(raw_results[i].interval.lo, packed_results[i].interval.lo)
        << "query " << i;
    ASSERT_EQ(raw_results[i].interval.hi, packed_results[i].interval.hi)
        << "query " << i;
  }
}

TEST(PackedParity, PackedSaveRoundTripsToEveryVersion) {
  // A packed load must be able to write v2/v3 (decoding on the fly) and
  // v4 again, all byte-faithful to the original genome.
  const GenomeIndex& packed = packed_index();
  const GenomeIndex& raw = world().index111;
  for (const u32 version :
       {GenomeIndex::kVersionV2, GenomeIndex::kVersionV3,
        GenomeIndex::kVersionV4}) {
    const TempIndexFile file(packed, version);
    const GenomeIndex loaded =
        GenomeIndex::load_file(file.path, IndexLoadMode::kStream);
    SCOPED_TRACE(version);
    EXPECT_EQ(loaded.text_size(), raw.text().size());
    EXPECT_EQ(loaded.text_substr(0, raw.text().size()), raw.text());
    const MmpResult a = raw.mmp("ACGTACGTAC");
    const MmpResult b = loaded.mmp("ACGTACGTAC");
    EXPECT_EQ(a.length, b.length);
    EXPECT_EQ(a.interval.lo, b.interval.lo);
    EXPECT_EQ(a.interval.hi, b.interval.hi);
  }
}

}  // namespace
}  // namespace staratlas
