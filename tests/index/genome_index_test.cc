#include "index/genome_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "index/suffix_array.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

template <typename A, typename B>
bool same_range(const A& a, const B& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

using staratlas::testing::TempBytesFile;
using staratlas::testing::TempIndexFile;

Assembly two_contig_assembly() {
  std::vector<Contig> contigs = {
      {"A", ContigClass::kChromosome,
       "ACGTACGTACGTAAATTTCCCGGGACGTACGTACGT"},
      {"B", ContigClass::kUnlocalizedScaffold,
       "TTTTGGGGCCCCAAAATTTTGGGGCCCCAAAA"},
  };
  return Assembly("t", 111, AssemblyType::kToplevel, std::move(contigs));
}

TEST(GenomeIndex, SuffixArrayIsValid) {
  const GenomeIndex index = GenomeIndex::build(two_contig_assembly());
  EXPECT_TRUE(is_valid_suffix_array(index.text(), index.suffix_array()));
}

TEST(GenomeIndex, TextJoinsContigsWithSeparator) {
  const Assembly assembly = two_contig_assembly();
  const GenomeIndex index = GenomeIndex::build(assembly);
  const std::string expected = assembly.contig(0).sequence + "#" +
                               assembly.contig(1).sequence;
  EXPECT_EQ(index.text(), expected);
}

TEST(GenomeIndex, LocateMapsPositionsToContigs) {
  const Assembly assembly = two_contig_assembly();
  const GenomeIndex index = GenomeIndex::build(assembly);
  const u64 len_a = assembly.contig(0).length();
  EXPECT_EQ(index.locate(0).contig, 0u);
  EXPECT_EQ(index.locate(0).offset, 0u);
  EXPECT_EQ(index.locate(len_a - 1).contig, 0u);
  EXPECT_EQ(index.locate(len_a + 1).contig, 1u);
  EXPECT_EQ(index.locate(len_a + 1).offset, 0u);
  EXPECT_EQ(index.locate(index.text().size() - 1).contig, 1u);
}

TEST(GenomeIndex, MmpFindsPlantedSubstrings) {
  const auto& w = world();
  const GenomeIndex& index = w.index111;
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string& chrom = w.r111.contig(0).sequence;
    const u64 pos = rng.uniform(chrom.size() - 60);
    const std::string query = chrom.substr(pos, 50);
    const MmpResult result = index.mmp(query);
    EXPECT_EQ(result.length, 50u) << "full query should match";
    // One of the reported occurrences must be the planted position.
    bool found = false;
    for (u32 row = result.interval.lo; row < result.interval.hi; ++row) {
      const ContigLocus locus = index.locate(index.sa_position(row));
      if (locus.contig == 0 && locus.offset == pos) found = true;
    }
    EXPECT_TRUE(found) << "planted occurrence missing at trial " << trial;
  }
}

TEST(GenomeIndex, MmpIsMaximal) {
  const auto& w = world();
  const GenomeIndex& index = w.index111;
  const std::string& chrom = w.r111.contig(0).sequence;
  // 30 genome bases followed by junk: MMP should stop at/after 30 but not
  // claim the junk (the junk 25-mer almost surely absent).
  const std::string query = chrom.substr(1'000, 30) + "CCCCCCCCCCGGGGGGGGGGCCCCC";
  const MmpResult result = index.mmp(query);
  EXPECT_GE(result.length, 30u);
  EXPECT_LT(result.length, query.size());
  // Every occurrence must really match the prefix.
  const std::string_view prefix =
      std::string_view(query).substr(0, result.length);
  for (u32 row = result.interval.lo;
       row < std::min(result.interval.hi, result.interval.lo + 5); ++row) {
    const GenomePos pos = index.sa_position(row);
    EXPECT_EQ(index.text().substr(pos, result.length), prefix);
  }
}

TEST(GenomeIndex, MmpAbsentFirstCharGivesZero) {
  // Query of Ns never matches (genome has no N runs by construction here).
  const GenomeIndex index = GenomeIndex::build(two_contig_assembly());
  const MmpResult result = index.mmp("NNNNNNNN");
  EXPECT_EQ(result.length, 0u);
  EXPECT_TRUE(result.interval.empty());
}

TEST(GenomeIndex, MmpNeverCrossesContigBoundary) {
  // Plant a query spanning the end of contig A and start of contig B: the
  // separator must stop the match at the contig end.
  const Assembly assembly = two_contig_assembly();
  const GenomeIndex index = GenomeIndex::build(assembly);
  const std::string& a = assembly.contig(0).sequence;
  const std::string& b = assembly.contig(1).sequence;
  const std::string query = a.substr(a.size() - 10) + b.substr(0, 10);
  const MmpResult result = index.mmp(query);
  EXPECT_LE(result.length, 19u);  // cannot match through the separator
}

TEST(GenomeIndex, ExtendIntervalNarrowsCorrectly) {
  const auto& w = world();
  const GenomeIndex& index = w.index111;
  const std::string& chrom = w.r111.contig(0).sequence;
  const std::string query = chrom.substr(5'000, 25);
  // Manually extend character by character from the full range; final
  // interval must match mmp's.
  SaInterval interval{0, static_cast<u32>(index.suffix_array().size())};
  for (usize d = 0; d < query.size(); ++d) {
    interval = index.extend_interval(interval, d, query[d]);
    ASSERT_FALSE(interval.empty());
  }
  const MmpResult result = index.mmp(query);
  EXPECT_EQ(result.interval.lo, interval.lo);
  EXPECT_EQ(result.interval.hi, interval.hi);
}

TEST(GenomeIndex, LutJumpstartAgreesWithIncrementalSearch) {
  const auto& w = world();
  const GenomeIndex& index = w.index111;
  Rng rng(8);
  static const char kBases[] = "ACGT";
  for (int trial = 0; trial < 100; ++trial) {
    std::string query(24, 'A');
    for (auto& c : query) c = kBases[rng.uniform(4)];
    const MmpResult via_lut = index.mmp(query);
    // Incremental from scratch (bypasses LUT): character-by-character.
    SaInterval interval{0, static_cast<u32>(index.suffix_array().size())};
    usize depth = 0;
    while (depth < query.size()) {
      const SaInterval next = index.extend_interval(interval, depth, query[depth]);
      if (next.empty()) break;
      interval = next;
      ++depth;
    }
    EXPECT_EQ(via_lut.length, depth);
    if (depth > 0) {
      EXPECT_EQ(via_lut.interval.lo, interval.lo);
      EXPECT_EQ(via_lut.interval.hi, interval.hi);
    }
  }
}

TEST(GenomeIndex, StatsReportSizes) {
  const auto& w = world();
  const IndexStats s108 = w.index108.stats();
  const IndexStats s111 = w.index111.stats();
  EXPECT_EQ(s108.num_contigs, w.r108.num_contigs());
  EXPECT_EQ(s108.genome_length, w.r108.total_length());
  EXPECT_GT(s108.total().bytes(), 2 * s111.total().bytes());
  EXPECT_EQ(s111.suffix_array_bytes.bytes(),
            w.index111.suffix_array().size() * sizeof(u32));
}

TEST(GenomeIndex, SaveLoadRoundTrip) {
  const Assembly assembly = two_contig_assembly();
  const GenomeIndex index = GenomeIndex::build(assembly);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  index.save(buffer);
  const GenomeIndex loaded = GenomeIndex::load(buffer);
  EXPECT_EQ(loaded.text(), index.text());
  EXPECT_TRUE(same_range(loaded.suffix_array(), index.suffix_array()));
  EXPECT_EQ(loaded.prefix_lut_k(), index.prefix_lut_k());
  EXPECT_EQ(loaded.release(), index.release());
  EXPECT_EQ(loaded.contigs().size(), index.contigs().size());
  EXPECT_EQ(loaded.contigs()[1].name, "B");
  // Loaded index must search identically.
  const MmpResult a = index.mmp("ACGTACGT");
  const MmpResult b = loaded.mmp("ACGTACGT");
  EXPECT_EQ(a.length, b.length);
  EXPECT_EQ(a.interval.lo, b.interval.lo);
}

TEST(GenomeIndex, LoadRejectsGarbage) {
  std::istringstream in("not an index at all, definitely not");
  EXPECT_THROW(GenomeIndex::load(in), ParseError);
}

TEST(GenomeIndex, ParallelBuildIsBitIdenticalToSequential) {
  const auto& w = world();
  IndexParams sequential_params;
  sequential_params.num_threads = 1;
  const GenomeIndex sequential = GenomeIndex::build(w.r111, sequential_params);
  for (const usize threads : {2u, 4u, 8u}) {
    IndexParams params;
    params.num_threads = threads;
    const GenomeIndex parallel = GenomeIndex::build(w.r111, params);
    EXPECT_EQ(parallel.text(), sequential.text()) << threads << " threads";
    EXPECT_TRUE(
        same_range(parallel.suffix_array(), sequential.suffix_array()))
        << threads << " threads";
    EXPECT_TRUE(same_range(parallel.prefix_lut(), sequential.prefix_lut()))
        << threads << " threads";
    for (u32 k = 1; k <= 4; ++k) {
      EXPECT_TRUE(same_range(parallel.mini_lut(k), sequential.mini_lut(k)))
          << threads << " threads, mini-LUT k=" << k;
    }
  }
}

TEST(GenomeIndex, StatsIncludeMiniLutBytes) {
  const GenomeIndex index = GenomeIndex::build(two_contig_assembly());
  const IndexStats stats = index.stats();
  // 4 + 16 + 64 + 256 cells of 8 bytes each.
  EXPECT_EQ(stats.mini_lut_bytes.bytes(), 340u * sizeof(LutCell));
  EXPECT_EQ(stats.total().bytes(),
            stats.text_bytes.bytes() + stats.suffix_array_bytes.bytes() +
                stats.lut_bytes.bytes() + stats.mini_lut_bytes.bytes());
}

// Round-trip matrix: every load path must produce an index that searches
// and reports identically to the original.
TEST(GenomeIndex, RoundTripMatrixSearchesIdentically) {
  const auto& w = world();
  const GenomeIndex& original = w.index111;
  const std::string& chrom = w.r111.contig(0).sequence;
  std::vector<std::string> queries = {"ACGTACGT", "NNNNN", "A", ""};
  Rng rng(21);
  for (int i = 0; i < 20; ++i) {
    queries.push_back(chrom.substr(rng.uniform(chrom.size() - 64), 48));
  }

  const TempIndexFile file(original);
  for (const IndexLoadMode mode :
       {IndexLoadMode::kStream, IndexLoadMode::kMmap, IndexLoadMode::kAuto}) {
    if (mode == IndexLoadMode::kMmap && !MappedFile::supported()) continue;
    const GenomeIndex loaded = GenomeIndex::load_file(file.path, mode);
    SCOPED_TRACE(static_cast<int>(mode));
    if (mode != IndexLoadMode::kAuto) {
      EXPECT_EQ(loaded.memory_mapped(), mode == IndexLoadMode::kMmap);
    }
    EXPECT_EQ(loaded.text(), original.text());
    EXPECT_EQ(loaded.text_substr(0, original.text().size()), original.text());
    EXPECT_TRUE(same_range(loaded.suffix_array(), original.suffix_array()));
    EXPECT_TRUE(same_range(loaded.prefix_lut(), original.prefix_lut()));
    for (u32 k = 1; k <= 4; ++k) {
      EXPECT_TRUE(same_range(loaded.mini_lut(k), original.mini_lut(k)));
    }
    const IndexStats got = loaded.stats();
    const IndexStats want = original.stats();
    EXPECT_EQ(got.total().bytes(), want.total().bytes());
    EXPECT_EQ(got.genome_length, want.genome_length);
    EXPECT_EQ(got.num_contigs, want.num_contigs);
    EXPECT_EQ(loaded.fingerprint(), original.fingerprint());
    for (const std::string& q : queries) {
      const MmpResult a = original.mmp(q);
      const MmpResult b = loaded.mmp(q);
      EXPECT_EQ(a.length, b.length) << "query " << q;
      EXPECT_EQ(a.interval.lo, b.interval.lo) << "query " << q;
      EXPECT_EQ(a.interval.hi, b.interval.hi) << "query " << q;
    }
  }
}

TEST(GenomeIndex, MmapChecksumVerificationPasses) {
  if (!MappedFile::supported()) GTEST_SKIP();
  const GenomeIndex index = GenomeIndex::build(two_contig_assembly());
  const TempIndexFile file(index);
  const GenomeIndex mapped =
      GenomeIndex::load_file(file.path, IndexLoadMode::kMmap);
  EXPECT_TRUE(mapped.memory_mapped());
  EXPECT_NO_THROW(mapped.verify_checksums());
  // Owned indexes have nothing to verify; must be a no-op.
  EXPECT_NO_THROW(index.verify_checksums());
}

TEST(GenomeIndex, LoadRejectsUnsupportedVersionsAndShortFiles) {
  // A valid magic ("STAR") followed by a retired version, padded well past
  // any header read: 2 is the split-LUT format, 4 the 2-bit packed text.
  std::string header(64, '\0');
  for (const u32 version : {2u, 4u}) {
    const u32 magic_and_version[2] = {0x53544152, version};
    std::memcpy(header.data(), magic_and_version, sizeof magic_and_version);
    const TempBytesFile file(header);
    const std::string want =
        "unsupported index version " + std::to_string(version);
    for (const IndexLoadMode mode :
         {IndexLoadMode::kStream, IndexLoadMode::kMmap, IndexLoadMode::kAuto}) {
      if (mode == IndexLoadMode::kMmap && !MappedFile::supported()) continue;
      try {
        (void)GenomeIndex::load_file(file.path, mode);
        ADD_FAILURE() << "version " << version << " file loaded";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
      }
    }
  }
  // kAuto no longer probes the header: an empty file and one too short
  // for the version word are clean ParseErrors from the loader itself.
  const TempBytesFile empty_file("");
  EXPECT_THROW((void)GenomeIndex::load_file(empty_file.path), ParseError);
  const TempBytesFile magic_only(header.substr(0, 4));
  EXPECT_THROW((void)GenomeIndex::load_file(magic_only.path), ParseError);
}

TEST(GenomeIndex, CustomLutK) {
  IndexParams params;
  params.prefix_lut_k = 4;
  const GenomeIndex index = GenomeIndex::build(two_contig_assembly(), params);
  EXPECT_EQ(index.prefix_lut_k(), 4u);
  const MmpResult result = index.mmp("ACGTACGT");
  EXPECT_EQ(result.length, 8u);
}

}  // namespace
}  // namespace staratlas
