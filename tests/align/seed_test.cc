#include "align/seed.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "index/packed_sequence.h"
#include "seed_oracle.h"
#include "sim/library_profile.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

TEST(SeedSearch, ExactReadYieldsGridSeeds) {
  const auto& w = world();
  const std::string read = w.r111.contig(0).sequence.substr(10'000, 100);
  AlignerParams params;
  const SeedSearchResult result = find_seeds(w.index111, read, params);
  // One full-length MMP from offset 0 plus one per later grid start.
  ASSERT_GE(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0].read_offset, 0u);
  EXPECT_EQ(result.seeds[0].length, 100u);
  bool has_grid_seed = false;
  for (const Seed& seed : result.seeds) {
    if (seed.read_offset == params.seed_search_start_lmax) has_grid_seed = true;
  }
  EXPECT_TRUE(has_grid_seed);
}

TEST(SeedSearch, ErrorSplitsRead) {
  const auto& w = world();
  std::string read = w.r111.contig(0).sequence.substr(20'000, 100);
  // Introduce a mismatch at position 40 (flip the base).
  read[40] = read[40] == 'A' ? 'C' : 'A';
  AlignerParams params;
  const SeedSearchResult result = find_seeds(w.index111, read, params);
  // First MMP stops at/near the error; a later seed resumes past it.
  ASSERT_GE(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0].read_offset, 0u);
  EXPECT_LE(result.seeds[0].length, 41u);
  bool covers_tail = false;
  for (const Seed& seed : result.seeds) {
    if (seed.read_offset + seed.length >= 95) covers_tail = true;
  }
  EXPECT_TRUE(covers_tail);
}

TEST(SeedSearch, JunkReadYieldsNoSeeds) {
  const auto& w = world();
  // Alternating motif absent from a random-ish genome at length >= 18.
  const std::string read =
      "CCCCCCGGGGGGCCCCCCGGGGGGCCCCCCGGGGGGCCCCCCGGGGGGCCCC";
  AlignerParams params;
  const SeedSearchResult result = find_seeds(w.index111, read, params);
  EXPECT_TRUE(result.seeds.empty());
  EXPECT_GT(result.mmp_calls, 1u);  // it kept trying along the read
}

TEST(SeedSearch, RespectsMaxSeeds) {
  const auto& w = world();
  const std::string read = w.r111.contig(0).sequence.substr(30'000, 100);
  AlignerParams params;
  params.max_seeds_per_read = 1;
  const SeedSearchResult result = find_seeds(w.index111, read, params);
  EXPECT_EQ(result.seeds.size(), 1u);
}

TEST(SeedSearch, MinLengthFiltersShortMatches) {
  const auto& w = world();
  const std::string genome_piece = w.r111.contig(0).sequence.substr(40'000, 100);
  AlignerParams params;
  params.seed_min_length = 101;  // longer than the read: nothing qualifies
  const SeedSearchResult result = find_seeds(w.index111, genome_piece, params);
  EXPECT_TRUE(result.seeds.empty());
}

TEST(SeedSearch, SeedIntervalsContainTrueLocus) {
  const auto& w = world();
  const u64 planted = 15'000;
  const std::string read = w.r111.contig(1).sequence.substr(planted, 80);
  AlignerParams params;
  const SeedSearchResult result = find_seeds(w.index111, read, params);
  ASSERT_FALSE(result.seeds.empty());
  const Seed& seed = result.seeds[0];
  bool found = false;
  for (u32 row = seed.interval.lo; row < seed.interval.hi; ++row) {
    const ContigLocus locus =
        w.index111.locate(w.index111.sa_position(row));
    if (locus.contig == 1 && locus.offset == planted) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SeedSearch, WorkCountersPopulated) {
  const auto& w = world();
  const std::string read = w.r111.contig(0).sequence.substr(50'000, 100);
  const SeedSearchResult result = find_seeds(w.index111, read, AlignerParams{});
  EXPECT_GT(result.mmp_calls, 0u);
  EXPECT_GT(result.chars_matched, 90u);
}


// --- Walk oracle: the pruned walks against the unpruned one. -------------

void expect_same_seeds(const SeedSearchResult& got,
                       const SeedSearchResult& want, const std::string& what) {
  ASSERT_EQ(got.seeds.size(), want.seeds.size()) << what;
  for (usize s = 0; s < want.seeds.size(); ++s) {
    EXPECT_EQ(got.seeds[s].read_offset, want.seeds[s].read_offset)
        << what << " seed " << s;
    EXPECT_EQ(got.seeds[s].length, want.seeds[s].length)
        << what << " seed " << s;
    EXPECT_EQ(got.seeds[s].interval.lo, want.seeds[s].interval.lo)
        << what << " seed " << s;
    EXPECT_EQ(got.seeds[s].interval.hi, want.seeds[s].interval.hi)
        << what << " seed " << s;
  }
  EXPECT_LE(got.mmp_calls, want.mmp_calls) << what;
  EXPECT_LE(got.chars_matched, want.chars_matched) << what;
}

/// Simulated bulk and single-cell reads (both orientations) plus edge
/// reads: empty, around seed_min_length, around multiples of lmax, all-N,
/// and N at either end.
std::vector<std::string> oracle_corpus() {
  const auto& w = world();
  std::vector<std::string> corpus;
  for (const LibraryProfile& profile :
       {bulk_rna_profile(), single_cell_profile()}) {
    const ReadSet reads = w.simulator->simulate(profile, 150, Rng(8080));
    for (const auto& read : reads.reads) {
      corpus.push_back(read.sequence);
      std::string rc;
      reverse_complement(read.sequence, rc);
      corpus.push_back(std::move(rc));
    }
  }
  const std::string& chrom = w.r111.contig(0).sequence;
  Rng rng(77);
  corpus.push_back("");
  for (const usize len : {1u, 17u, 18u, 19u, 35u, 36u, 37u, 49u, 50u, 51u,
                          99u, 100u, 101u, 149u, 150u, 151u}) {
    corpus.push_back(chrom.substr(rng.uniform(chrom.size() - len), len));
  }
  corpus.push_back(std::string(100, 'N'));
  std::string read = chrom.substr(60'000, 100);
  read.front() = 'N';
  corpus.push_back(read);
  read = chrom.substr(61'000, 100);
  read.back() = 'N';
  corpus.push_back(read);
  read = chrom.substr(62'000, 100);
  read.replace(0, 5, "NNNNN");
  read.replace(95, 5, "NNNNN");
  corpus.push_back(read);
  return corpus;
}

/// Defaults, then parameter sets that stress the rules: a short grid (many
/// walks, many merges), short and long minimum seeds, and seed caps.
std::vector<AlignerParams> oracle_params() {
  std::vector<AlignerParams> sets(6);
  sets[1].seed_search_start_lmax = 7;
  sets[2].seed_min_length = 12;
  sets[2].seed_search_start_lmax = 18;
  sets[3].seed_min_length = 36;
  sets[4].max_seeds_per_read = 3;
  sets[4].seed_search_start_lmax = 10;
  sets[5].seed_min_length = 0;
  sets[5].seed_search_start_lmax = 1;
  return sets;
}

TEST(SeedWalkOracle, FindSeedsMatchesUnprunedWalk) {
  const auto& w = world();
  const std::vector<std::string> corpus = oracle_corpus();
  SeedSearchResult got;
  for (usize p = 0; p < oracle_params().size(); ++p) {
    const AlignerParams params = oracle_params()[p];
    for (usize i = 0; i < corpus.size(); ++i) {
      find_seeds(w.index111, corpus[i], params, got);
      expect_same_seeds(
          got, staratlas::testing::unpruned_find_seeds(w.index111, corpus[i],
                                                       params),
          "params " + std::to_string(p) + " read " + std::to_string(i));
    }
  }
}

TEST(SeedWalkOracle, FindSeedsBatchMatchesUnprunedWalk) {
  const auto& w = world();
  const std::vector<std::string> corpus = oracle_corpus();
  const std::vector<std::string_view> views(corpus.begin(), corpus.end());
  std::vector<SeedSearchResult> got(views.size());
  SeedBatchScratch scratch;
  for (usize p = 0; p < oracle_params().size(); ++p) {
    const AlignerParams params = oracle_params()[p];
    find_seeds_batch(w.index111, views, params, got, scratch);
    for (usize i = 0; i < corpus.size(); ++i) {
      expect_same_seeds(
          got[i], staratlas::testing::unpruned_find_seeds(w.index111,
                                                          corpus[i], params),
          "params " + std::to_string(p) + " read " + std::to_string(i));
    }
  }
}

TEST(SeedWalkOracle, PruningCutsMmpCallsOnSimulatedReads) {
  // The rules are not vacuous: every 100 bp read ends its walks with tail
  // queries the unpruned walk issues and the pruned one skips.
  const auto& w = world();
  const ReadSet reads =
      w.simulator->simulate(bulk_rna_profile(), 200, Rng(8181));
  const AlignerParams params;
  u64 pruned = 0;
  u64 unpruned = 0;
  SeedSearchResult got;
  for (const auto& read : reads.reads) {
    find_seeds(w.index111, read.sequence, params, got);
    pruned += got.mmp_calls;
    unpruned += staratlas::testing::unpruned_find_seeds(
                    w.index111, read.sequence, params)
                    .mmp_calls;
  }
  EXPECT_LT(pruned, unpruned);
}

}  // namespace
}  // namespace staratlas
