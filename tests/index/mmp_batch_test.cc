// Property tests for the batched MMP walker: mmp_batch / mmp_batch_stream
// must resolve every query to exactly the result a per-query mmp() call
// produces, across the corpus shapes that exercise every walker phase
// (LUT jumps, mini-LUT cascade, narrow half-rounds, the <=24-row direct
// scan, N runs, contig-boundary suffixes, empty and tiny queries), and the
// steady state must be allocation-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/alloc_counter.h"
#include "common/rng.h"
#include "index/genome_index.h"
#include "index/index_storage.h"
#include "index/packed_sequence.h"
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

  const TempIndexFile file(built);
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
      const std::string what =
          std::string(shape.name) +
          (mode == IndexLoadMode::kMmap ? ", mmap" : ", stream");
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


TEST(MmpBatch, RepeatCopiesNarrowByWideBlocks) {
  // 60 copies of one 300 bp element in a random background, a third of
  // them carrying one substitution. A query from the element keeps all
  // copies past the LUT depth, so the walker's insertion search compares
  // far past the jump depth and the block search must drop the mutated
  // copies wherever their substitution falls. Stream and mmap loads must
  // both equal per-query mmp(), which narrows one character at a time.
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

  const TempIndexFile file(built);
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


// --- The walker's binary search against per-character narrowing. --------

/// Feed of one query; the walk's return value is then that query's SA
/// row count.
class OneQueryFeed final : public GenomeIndex::MmpFeed {
 public:
  explicit OneQueryFeed(std::string_view query) : query_(query) {}
  bool next(std::string_view& query, u32& tag) override {
    if (issued_) return false;
    issued_ = true;
    query = query_;
    tag = 0;
    return true;
  }
  void done(u32, const MmpResult& result) override { result_ = result; }
  const MmpResult& result() const { return result_; }

 private:
  std::string_view query_;
  bool issued_ = false;
  MmpResult result_;
};

/// Width of the interval `query`'s walk jumps to before any search: the
/// main LUT cell of its leading k-mer, else the longest nonempty mini-LUT
/// cell, else the whole suffix array (mmp()'s jump).
u32 jump_width(const GenomeIndex& index, std::string_view query) {
  const u32 k = index.prefix_lut_k();
  u64 code = 0;
  u32 pure = 0;
  while (pure < query.size() && pure < k) {
    const u8 base = base_code(query[pure]);
    if (base == 0xff) break;
    code = (code << 2) | base;
    ++pure;
  }
  if (pure == k) {
    const LutCell& cell = index.prefix_lut()[code];
    if (cell[0] != cell[1]) return cell[1] - cell[0];
  }
  const u32 mini = std::min<u32>(pure, 4);
  code >>= 2 * (pure - mini);
  for (u32 kk = mini; kk >= 1; --kk) {
    const LutCell& cell = index.mini_lut(kk)[code >> (2 * (mini - kk))];
    if (cell[0] != cell[1]) return cell[1] - cell[0];
  }
  return static_cast<u32>(index.suffix_array().size());
}

/// A repeat family the bench genome's 11-mer LUT leaves whole: 33 copies
/// of one 160 bp element that share its first 64 bases (53 past the LUT
/// depth), then each carry one substitution at its own offset (two bases
/// apart), so the copies diverge from the element one after another.
/// Around them: a copy with an N inside the shared part, truncated copies
/// that run into a '#' separator and into the end of the text, and random
/// background.
struct RepeatFamily {
  static constexpr usize kLutK = 11;
  static constexpr usize kShared = 64;
  static constexpr usize kCopies = 32;
  std::string element;
  Assembly assembly;
  GenomeIndex index;

  static RepeatFamily make() {
    Rng rng(20261018);
    const auto random_bases = [&](usize n) {
      std::string out;
      for (usize i = 0; i < n; ++i) out.push_back("ACGT"[rng.uniform(4)]);
      return out;
    };
    RepeatFamily f;
    f.element = random_bases(160);
    std::string chrom_a;
    for (usize copy = 0; copy < kCopies; ++copy) {
      chrom_a += random_bases(300);
      std::string inserted = f.element;
      const usize at = kShared + 2 * copy;
      inserted[at] = inserted[at] == 'A' ? 'C' : 'A';
      chrom_a += inserted;
    }
    std::string with_n = f.element;
    with_n[kLutK + 20] = 'N';
    chrom_a += random_bases(300) + with_n + random_bases(300);
    // Contig A ends in a truncated copy (its suffixes run into '#'); the
    // last contig ends in one too (they run into the end of the text).
    chrom_a += f.element.substr(0, kLutK + 30);
    std::string late = f.element;
    late[150] = late[150] == 'A' ? 'C' : 'A';
    const std::string chrom_b = random_bases(2000) + late +
                                random_bases(700) +
                                f.element.substr(0, kLutK + 35);
    f.assembly = Assembly::from_fasta("repeat_family", 1,
                                      AssemblyType::kToplevel,
                                      {{"chrA", "", chrom_a},
                                       {"chrB", "", chrom_b}});
    f.index = GenomeIndex::build(
        f.assembly, IndexParams{.prefix_lut_k = static_cast<u32>(kLutK)});
    return f;
  }

  /// Queries for every search shape; see SearchMatchesPerCharNarrowing.
  std::vector<std::string> queries() const {
    Rng rng(77);
    std::vector<std::string> out;
    // Into the family: each copy's divergence ends a different walk, and
    // 100 bases match the copies that diverge later whole.
    for (usize start = 0; start + kLutK + 8 < kShared; start += 5) {
      out.push_back(element.substr(start));
      out.push_back(element.substr(start, 100));
      for (usize copy = 0; copy < kCopies; copy += 7) {
        std::string q = element.substr(start);
        const usize at = kShared + 2 * copy - start;
        q[at] = q[at] == 'A' ? 'C' : 'A';
        out.push_back(q.substr(0, std::min<usize>(q.size(), at + 30)));
      }
    }
    // Whole-query matches inside the wide interval: every copy, the
    // truncated ones included, or only the copies long enough.
    for (const usize len : {kLutK + 10, kLutK + 30, kLutK + 35, kShared}) {
      out.push_back(element.substr(0, len));
    }
    // One base longer than the truncated copies: those suffixes end first
    // (at '#' or the text end) and sort left of the query.
    out.push_back(element.substr(0, kLutK + 31));
    out.push_back(element.substr(0, kLutK + 36));
    // N: the copy that carries it, and N where no copy has one.
    std::string n_copy = element;
    n_copy[kLutK + 20] = 'N';
    out.push_back(n_copy.substr(0, 90));
    std::string n_absent = element;
    n_absent[kLutK + 12] = 'N';
    out.push_back(n_absent.substr(0, 90));
    out.push_back("N" + element.substr(0, 60));
    // Cascade lanes: the leading 11-mer is absent, so the walk jumps by a
    // mini-LUT (a wide short-prefix block) and searches from depth <= 4.
    usize cascades = 0;
    while (cascades < 40) {
      std::string q;
      if (cascades % 2 == 0) {
        for (int j = 0; j < 50; ++j) q.push_back("ACGT"[rng.uniform(4)]);
      } else {
        const std::string& chrom = assembly.contig(0).sequence;
        q = chrom.substr(rng.uniform(chrom.size() - 60), 60);
        q[5 + rng.uniform(5)] = 'T';
      }
      u64 code = 0;
      for (u32 j = 0; j < kLutK; ++j) code = (code << 2) | base_code(q[j]);
      const LutCell& cell = index.prefix_lut()[code];
      if (cell[0] != cell[1]) continue;
      out.push_back(std::move(q));
      ++cascades;
    }
    return out;
  }
};

TEST(MmpBatch, SearchMatchesPerCharNarrowing) {
  const RepeatFamily family = RepeatFamily::make();
  const std::vector<std::string> queries = family.queries();
  const GenomeIndex& built = family.index;

  // The fixture reaches what it claims to: a family interval wider than
  // the direct scan that stays whole at the LUT depth, matches ending at
  // a divergence, whole-query matches of more than kT rows, and cascade
  // jumps wider than kT.
  const std::string& element = family.element;
  ASSERT_GT(jump_width(built, element), 24u);
  const MmpResult family_block =
      built.mmp(element.substr(0, RepeatFamily::kLutK + 10));
  EXPECT_EQ(family_block.length, RepeatFamily::kLutK + 10);
  EXPECT_EQ(family_block.interval.count(), jump_width(built, element));
  EXPECT_GE(family_block.interval.count(), 30u);
  const MmpResult into_copy = built.mmp(element);
  EXPECT_GT(into_copy.length, RepeatFamily::kShared);
  EXPECT_LT(into_copy.length, element.size());
  const MmpResult late_copies = built.mmp(element.substr(0, 100));
  EXPECT_EQ(late_copies.length, 100u);
  EXPECT_GT(late_copies.interval.count(), 1u);
  EXPECT_LT(late_copies.interval.count(), family_block.interval.count());
  usize wide_cascades = 0;
  for (const std::string& q : queries) {
    if (built.mmp(q).length < RepeatFamily::kLutK &&
        jump_width(built, q) > 24) {
      ++wide_cascades;
    }
  }
  EXPECT_GE(wide_cascades, 20u);

  const TempIndexFile file(built);
  std::vector<IndexLoadMode> modes = {IndexLoadMode::kStream};
  if (MappedFile::supported()) modes.push_back(IndexLoadMode::kMmap);
  for (const IndexLoadMode mode : modes) {
    const GenomeIndex index = GenomeIndex::load_file(file.path, mode);
    const std::string what =
        mode == IndexLoadMode::kMmap ? "mmap" : "stream";
    std::vector<std::string_view> views(queries.begin(), queries.end());
    std::vector<MmpResult> results(views.size());
    index.mmp_batch(views, results);
    for (usize i = 0; i < views.size(); ++i) {
      SCOPED_TRACE(what + " query " + queries[i]);
      expect_same(results[i], index.mmp(views[i]), i);

      // One query alone: the walk reads O(log W) rows, where W is the
      // jump interval's width (the direct scan reads at most kT).
      OneQueryFeed feed(views[i]);
      const u64 rows = index.mmp_batch_stream(feed);
      expect_same(feed.result(), results[i], i);
      const u32 width = jump_width(index, views[i]);
      const u64 log_w = std::bit_width(width - 1);  // ceil(log2 W)
      EXPECT_LE(rows, 4 * log_w + 24) << "W = " << width;
    }
  }
}

TEST(MmpBatch, StreamReturnsRowsRead) {
  const RepeatFamily family = RepeatFamily::make();
  const GenomeIndex& index = family.index;
  // An empty query and a query whose jump lands past its end read no row.
  OneQueryFeed empty("");
  EXPECT_EQ(index.mmp_batch_stream(empty), 0u);
  const std::string three = family.element.substr(0, 3);
  OneQueryFeed short_query(three);
  EXPECT_EQ(index.mmp_batch_stream(short_query), 0u);
  // A jump interval of at most kT rows is read row by row, once.
  const std::string& chrom = family.assembly.contig(1).sequence;
  const std::string unique = chrom.substr(100, 60);
  ASSERT_LE(jump_width(index, unique), 24u);
  OneQueryFeed direct(unique);
  EXPECT_EQ(index.mmp_batch_stream(direct), jump_width(index, unique));
  // A whole-query match of the full family interval: one insertion probe
  // that matches, then a gallop to each edge of the interval.
  const std::string block = family.element.substr(0, RepeatFamily::kLutK + 5);
  OneQueryFeed wide(block);
  const u64 rows = index.mmp_batch_stream(wide);
  EXPECT_EQ(wide.result().interval.count(), jump_width(index, block));
  EXPECT_GT(rows, 2u);
  EXPECT_LE(rows, 2 * std::bit_width(jump_width(index, block)) + 1);
}

}  // namespace
}  // namespace staratlas
