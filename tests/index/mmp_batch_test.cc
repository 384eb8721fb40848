// Property tests for the batched MMP walker: mmp_batch / mmp_batch_stream
// must resolve every query to exactly the result a per-query mmp() call
// produces, across the corpus shapes that exercise every walker phase
// (LUT jumps, mini-LUT cascade, narrow half-rounds, the <=24-row direct
// scan, N runs, contig-boundary suffixes, empty and tiny queries), and the
// steady state must be allocation-free.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/alloc_counter.h"
#include "common/rng.h"
#include "index/genome_index.h"
#include "index/index_storage.h"
#include "io/fasta.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::TempIndexFile;
using staratlas::testing::world;

void expect_same(const MmpResult& batch, const MmpResult& solo, usize i) {
  EXPECT_EQ(batch.length, solo.length) << "query " << i;
  EXPECT_EQ(batch.interval.lo, solo.interval.lo) << "query " << i;
  EXPECT_EQ(batch.interval.hi, solo.interval.hi) << "query " << i;
}

void check_batch_matches_solo(const GenomeIndex& index,
                              const std::vector<std::string>& corpus) {
  std::vector<std::string_view> queries(corpus.begin(), corpus.end());
  std::vector<MmpResult> results(queries.size());
  index.mmp_batch(queries, results);
  for (usize i = 0; i < queries.size(); ++i) {
    MmpResult solo;
    index.mmp(queries[i], solo);
    expect_same(results[i], solo, i);
  }
}

std::string mutate(std::string s, Rng& rng, int edits) {
  static constexpr char kBases[] = "ACGTN";
  for (int e = 0; e < edits && !s.empty(); ++e) {
    s[rng.uniform(s.size())] = kBases[rng.uniform(5)];
  }
  return s;
}

TEST(MmpBatch, MatchesPerQueryMmpOnRandomCorpus) {
  const auto& w = world();
  const GenomeIndex& index = w.index111;
  const std::string& chrom0 = w.r111.contig(0).sequence;
  const std::string& chrom1 = w.r111.contig(1).sequence;

  Rng rng(20260808);
  std::vector<std::string> corpus;
  // Exact genome substrings of varied lengths: big intervals (short) down
  // to unique hits (long), from both contigs.
  for (int i = 0; i < 120; ++i) {
    const std::string& chrom = (i % 2 == 0) ? chrom0 : chrom1;
    const u64 len = 1 + rng.uniform(120);
    corpus.push_back(chrom.substr(rng.uniform(chrom.size() - len), len));
  }
  // Mutated substrings: the MMP ends mid-query, mixing walk depths.
  for (int i = 0; i < 120; ++i) {
    const u64 len = 8 + rng.uniform(100);
    corpus.push_back(
        mutate(chrom0.substr(rng.uniform(chrom0.size() - len), len), rng,
               1 + static_cast<int>(rng.uniform(4))));
  }
  // Pure random strings (mostly absent prefixes, mini-LUT territory).
  for (int i = 0; i < 60; ++i) {
    std::string q;
    const u64 len = rng.uniform(40);
    for (u64 j = 0; j < len; ++j) q.push_back("ACGTN"[rng.uniform(5)]);
    corpus.push_back(std::move(q));
  }
  check_batch_matches_solo(index, corpus);
}

TEST(MmpBatch, MatchesPerQueryMmpOnEdgeCases) {
  const auto& w = world();
  const GenomeIndex& index = w.index111;
  const std::string& chrom0 = w.r111.contig(0).sequence;
  const std::string& chrom1 = w.r111.contig(1).sequence;

  std::vector<std::string> corpus = {
      "",        // empty query
      "A",       // single chars (shorter than any LUT k)
      "C",
      "G",
      "T",
      "N",                        // absent first char
      "NNNNNNNNNNNNNNNNNNNNNNNN",  // long N run
      "ACGTNNNNACGT",              // N run in the middle
      "AC",  // shorter than the mini-LUT cascade tops out
      "ACG",
      "ACGT",
      chrom0.substr(0, 3),   // tiny genome prefixes
      chrom0.substr(0, 7),
      // Suffixes at the very end of each contig: the walk runs into the
      // '#' separator / end of text.
      chrom0.substr(chrom0.size() - 5),
      chrom0.substr(chrom0.size() - 31),
      chrom1.substr(chrom1.size() - 3),
      // Contig-boundary straddle: cannot match past the separator.
      chrom0.substr(chrom0.size() - 12) + chrom1.substr(0, 12),
      // Last contig's tail plus junk: match must stop at end of text.
      w.r111.contig(w.r111.num_contigs() - 1).sequence.substr(
          w.r111.contig(w.r111.num_contigs() - 1).sequence.size() - 9) +
          "NQNQ",
  };
  check_batch_matches_solo(index, corpus);
}

TEST(MmpBatch, BatchSizesAroundLaneCountAgree) {
  // 0, 1, sub-lane, exactly 64, and multi-wave batch sizes all agree with
  // solo mmp (the refill sweep and partial final wave are exercised).
  const auto& w = world();
  const GenomeIndex& index = w.index111;
  const std::string& chrom = w.r111.contig(0).sequence;
  Rng rng(7);
  for (const usize n : {0u, 1u, 3u, 63u, 64u, 65u, 200u}) {
    std::vector<std::string> corpus;
    for (usize i = 0; i < n; ++i) {
      const u64 len = 1 + rng.uniform(80);
      corpus.push_back(chrom.substr(rng.uniform(chrom.size() - len), len));
    }
    check_batch_matches_solo(index, corpus);
  }
}

/// Feed whose next query depends on the previous result for the same tag —
/// the seed walk's restart pattern — exercising mmp_batch_stream's
/// done-before-refill contract: each walk consumes its read by repeated
/// MMPs (offset += max(length, 1)) and must end with the same offset
/// trajectory as a sequential per-query walk.
class ChainingFeed final : public GenomeIndex::MmpFeed {
 public:
  ChainingFeed(std::span<const std::string> reads,
               std::vector<std::vector<usize>>& trajectories)
      : reads_(reads), offsets_(reads.size(), 0), trajectories_(trajectories) {}

  bool next(std::string_view& query, u32& tag) override {
    if (!ready_.empty()) {
      tag = ready_.back();
      ready_.pop_back();
    } else if (cursor_ < reads_.size()) {
      tag = static_cast<u32>(cursor_++);
    } else {
      return false;
    }
    query = std::string_view(reads_[tag]).substr(offsets_[tag]);
    return true;
  }

  void done(u32 tag, const MmpResult& result) override {
    offsets_[tag] += std::max<usize>(result.length, 1);
    trajectories_[tag].push_back(result.length);
    if (offsets_[tag] < reads_[tag].size()) ready_.push_back(tag);
  }

 private:
  std::span<const std::string> reads_;
  std::vector<usize> offsets_;
  std::vector<std::vector<usize>>& trajectories_;
  std::vector<u32> ready_;
  usize cursor_ = 0;
};

TEST(MmpBatch, StreamChainedRestartsMatchSequentialWalk) {
  const auto& w = world();
  const GenomeIndex& index = w.index111;
  const std::string& chrom = w.r111.contig(0).sequence;

  Rng rng(99);
  std::vector<std::string> reads;
  for (int i = 0; i < 150; ++i) {
    const u64 len = 40 + rng.uniform(80);
    reads.push_back(
        mutate(chrom.substr(rng.uniform(chrom.size() - len), len), rng,
               static_cast<int>(rng.uniform(5))));
  }

  std::vector<std::vector<usize>> streamed(reads.size());
  ChainingFeed feed(reads, streamed);
  index.mmp_batch_stream(feed);

  for (usize i = 0; i < reads.size(); ++i) {
    // Sequential reference walk for read i.
    std::vector<usize> expected;
    MmpResult mmp;
    for (usize offset = 0; offset < reads[i].size();
         offset += std::max<usize>(mmp.length, 1)) {
      index.mmp(std::string_view(reads[i]).substr(offset), mmp);
      expected.push_back(mmp.length);
    }
    EXPECT_EQ(streamed[i], expected) << "read " << i;
  }
}

TEST(MmpBatch, SteadyStateIsAllocationFree) {
  const auto& w = world();
  const GenomeIndex& index = w.index111;
  const std::string& chrom = w.r111.contig(0).sequence;

  Rng rng(5);
  std::vector<std::string> corpus;
  for (int i = 0; i < 200; ++i) {
    const u64 len = 1 + rng.uniform(90);
    corpus.push_back(chrom.substr(rng.uniform(chrom.size() - len), len));
  }
  std::vector<std::string_view> queries(corpus.begin(), corpus.end());
  std::vector<MmpResult> results(queries.size());

  index.mmp_batch(queries, results);  // warm-up (touches text/SA pages)
  const u64 before = alloc_counter::thread_allocations();
  index.mmp_batch(queries, results);
  const u64 after = alloc_counter::thread_allocations();
  EXPECT_EQ(after - before, 0u)
      << "mmp_batch allocated on a warmed second call";
}


// --- Walker scheduling: lane refill under every feed shape. --------------

/// Feed of chained walks: a walk's next query is issued only after its
/// previous result was delivered. With `gated`, walk w+1 becomes pending
/// only once walk w has delivered its first result, so the feed goes dry
/// while lanes are still in flight and the walker must ask it again after
/// later deliveries.
class ScheduledFeed final : public GenomeIndex::MmpFeed {
 public:
  ScheduledFeed(const std::vector<std::vector<std::string>>& walks,
                bool gated)
      : walks_(walks),
        gated_(gated),
        step_(walks.size(), 0),
        results_(walks.size()) {}

  bool next(std::string_view& query, u32& tag) override {
    if (!ready_.empty()) {
      tag = ready_.back();
      ready_.pop_back();
    } else if (started_ < walks_.size() &&
               (!gated_ || started_ == 0 ||
                !results_[started_ - 1].empty())) {
      tag = static_cast<u32>(started_++);
    } else {
      ++dry_answers_;
      return false;
    }
    query = walks_[tag][step_[tag]];
    return true;
  }

  void done(u32 tag, const MmpResult& result) override {
    results_[tag].push_back(result);
    if (++step_[tag] < walks_[tag].size()) ready_.push_back(tag);
  }

  const std::vector<std::vector<MmpResult>>& results() const {
    return results_;
  }
  usize dry_answers() const { return dry_answers_; }

 private:
  const std::vector<std::vector<std::string>>& walks_;
  const bool gated_;
  std::vector<usize> step_;
  std::vector<std::vector<MmpResult>> results_;
  std::vector<u32> ready_;
  usize started_ = 0;
  usize dry_answers_ = 0;
};

/// Queries that reach every walker phase on `index`'s genome: absent
/// k-mers, queries shorter than the LUT k, repeat intervals wider than the
/// direct-scan threshold past the LUT depth, text-end suffixes, and N.
std::vector<std::string> scheduling_queries(const Assembly& assembly,
                                            const GenomeIndex& index) {
  Rng rng(4711);
  std::vector<std::string> out;
  const u32 k = index.prefix_lut_k();
  for (int i = 0; i < 24; ++i) {  // random: mostly absent k-mers
    std::string q;
    const u64 len = k + rng.uniform(30);
    for (u64 j = 0; j < len; ++j) q.push_back("ACGT"[rng.uniform(4)]);
    out.push_back(std::move(q));
  }
  const std::string& chrom = assembly.contig(0).sequence;
  for (u32 len = 1; len < k; ++len) {  // shorter than the LUT k
    out.push_back(chrom.substr(rng.uniform(chrom.size() - len), len));
  }
  for (const RepeatRegion& region : world().synthesizer->repeat_regions()) {
    if (region.contig >= assembly.num_contigs()) continue;
    const std::string& seq = assembly.contig(region.contig).sequence;
    if (region.end > seq.size() || region.end - region.start < 60) continue;
    out.push_back(seq.substr(region.start, 60));  // repeat copies
  }
  for (usize c = 0; c < assembly.num_contigs(); ++c) {  // text ends
    const std::string& seq = assembly.contig(c).sequence;
    out.push_back(seq.substr(seq.size() - 40) + "ACGTACGT");
  }
  for (int i = 0; i < 24; ++i) {  // genome reads with N planted
    std::string q = chrom.substr(rng.uniform(chrom.size() - 100), 100);
    q[rng.uniform(q.size())] = 'N';
    if (i % 4 == 0) q[0] = 'N';
    out.push_back(std::move(q));
  }
  out.push_back("NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN");
  out.push_back("");
  return out;
}

/// Splits `queries` into `num_walks` chained walks, round-robin.
std::vector<std::vector<std::string>> as_walks(
    const std::vector<std::string>& queries, usize num_walks) {
  std::vector<std::vector<std::string>> walks(num_walks);
  for (usize i = 0; i < queries.size(); ++i) {
    walks[i % num_walks].push_back(queries[i]);
  }
  return walks;
}

TEST(MmpBatch, StreamSchedulingMatchesPerQueryMmp) {
  const auto& w = world();
  // Release 108 carries the repeat copies that keep intervals wide.
  const GenomeIndex& built = w.index108;
  const std::vector<std::string> queries = scheduling_queries(w.r108, built);

  // The corpus reaches what it claims to.
  usize wide = 0;
  usize short_queries = 0;
  for (const std::string& query : queries) {
    const MmpResult solo = built.mmp(query);
    if (solo.length > built.prefix_lut_k() && solo.interval.count() > 24) {
      ++wide;
    }
    if (query.size() < built.prefix_lut_k()) ++short_queries;
  }
  EXPECT_GT(wide, 0u) << "no repeat interval wider than the direct scan";
  EXPECT_GT(short_queries, 0u);

  for (const u32 version : {GenomeIndex::kVersionV3, GenomeIndex::kVersionV4}) {
    const TempIndexFile file(built, version);
    std::vector<IndexLoadMode> modes = {IndexLoadMode::kStream};
    if (MappedFile::supported()) modes.push_back(IndexLoadMode::kMmap);
    for (const IndexLoadMode mode : modes) {
      const GenomeIndex index = GenomeIndex::load_file(file.path, mode);
      struct Shape {
        const char* name;
        usize walks;
        bool gated;
      };
      // 1 walk; fewer walks than the 64 lanes; many more walks than lanes
      // (every query its own walk, so lanes recycle); and a gated feed
      // that goes dry while lanes are in flight.
      const Shape shapes[] = {{"one walk", 1, false},
                              {"fewer walks than lanes", 9, false},
                              {"many more walks than lanes", queries.size(),
                               false},
                              {"dry while in flight", 40, true}};
      for (const Shape& shape : shapes) {
        const auto walks = as_walks(queries, shape.walks);
        ScheduledFeed feed(walks, shape.gated);
        index.mmp_batch_stream(feed);
        const std::string what = std::string(shape.name) + ", v" +
                                 std::to_string(version) +
                                 (mode == IndexLoadMode::kMmap ? " mmap"
                                                               : " stream");
        if (shape.gated) {
          EXPECT_GT(feed.dry_answers(), 1u) << what;
        }
        for (usize wk = 0; wk < walks.size(); ++wk) {
          ASSERT_EQ(feed.results()[wk].size(), walks[wk].size())
              << what << " walk " << wk;
          for (usize s = 0; s < walks[wk].size(); ++s) {
            const MmpResult solo = index.mmp(walks[wk][s]);
            EXPECT_EQ(feed.results()[wk][s].length, solo.length)
                << what << " walk " << wk << " step " << s;
            EXPECT_EQ(feed.results()[wk][s].interval.lo, solo.interval.lo)
                << what << " walk " << wk << " step " << s;
            EXPECT_EQ(feed.results()[wk][s].interval.hi, solo.interval.hi)
                << what << " walk " << wk << " step " << s;
          }
        }
      }
    }
  }
}


TEST(MmpBatch, RepeatCopiesNarrowByWideBlocks) {
  // 60 copies of one 300 bp element in a random background, a third of
  // them carrying one substitution. A query from the element keeps all
  // copies past the LUT depth, so per-char narrowing stalls and packed
  // lanes switch to 32-base blocks; the mutated copies then drop out
  // inside a block, which forces the per-char fallback. Raw text stays
  // per-char. Raw and packed text, stream and mmap, must all equal
  // per-query mmp().
  Rng rng(515);
  const auto random_bases = [&](usize n) {
    std::string out;
    for (usize i = 0; i < n; ++i) out.push_back("ACGT"[rng.uniform(4)]);
    return out;
  };
  const std::string element = random_bases(300);
  std::string chrom;
  for (int copy = 0; copy < 60; ++copy) {
    chrom += random_bases(500);
    std::string inserted = element;
    if (copy % 3 == 0) {
      const usize at = 40 + rng.uniform(240);
      inserted[at] = inserted[at] == 'A' ? 'C' : 'A';
    }
    chrom += inserted;
  }
  chrom += random_bases(500);
  const Assembly assembly = Assembly::from_fasta(
      "repeats", 1, AssemblyType::kToplevel, {{"chrR", "", chrom}});
  const GenomeIndex built = GenomeIndex::build(assembly);

  std::vector<std::string> queries;
  for (usize start = 0; start + 100 <= element.size(); start += 7) {
    queries.push_back(element.substr(start, 100));
    std::string mutated = element.substr(start, 100);
    mutated[60] = mutated[60] == 'G' ? 'T' : 'G';
    queries.push_back(std::move(mutated));
  }
  ASSERT_GT(built.mmp(queries[0]).interval.count(), 24u);

  for (const u32 version : {GenomeIndex::kVersionV3, GenomeIndex::kVersionV4}) {
    const TempIndexFile file(built, version);
    std::vector<IndexLoadMode> modes = {IndexLoadMode::kStream};
    if (MappedFile::supported()) modes.push_back(IndexLoadMode::kMmap);
    for (const IndexLoadMode mode : modes) {
      const GenomeIndex index = GenomeIndex::load_file(file.path, mode);
      std::vector<std::string_view> views(queries.begin(), queries.end());
      std::vector<MmpResult> results(views.size());
      index.mmp_batch(views, results);
      for (usize i = 0; i < views.size(); ++i) {
        expect_same(results[i], index.mmp(views[i]), i);
      }
    }
  }
}

}  // namespace
}  // namespace staratlas
