// Scalar/SIMD parity: the striped X-drop driver that extends every read
// must return, at every compiled strip-mask level, the same results as a
// plain per-window scalar scan (the oracle below) on fuzzed inputs, and the
// batched alignment path (find_seeds_batch / Aligner::align_batch) must
// reproduce the per-read path exactly — outcomes, scores, hits, segments,
// and every work counter. These are the invariants that let the FIG3/FIG4
// experiment outputs stay bit-identical across SIMD levels and batch
// shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "align/aligner.h"
#include "align/extend.h"
#include "align/seed.h"
#include "align/workspace.h"
#include "common/rng.h"
#include "common/simd.h"
#include "sim/library_profile.h"
#include "sim/read_simulator.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

// ---------------------------------------------------------------------------
// Oracle: one whole X-drop scan with +1/-2 scoring, one window at a time,
// as a u64-word match-run loop with no vector instructions and no strips.
// It shares no code with the striped driver in align/extend.cc.
// ---------------------------------------------------------------------------

/// Result of one whole X-drop scan with +1/-2 scoring.
struct ScanResult {
  u64 best_matched = 0;  ///< matched bases within the best-scoring prefix
  u64 best_len = 0;      ///< length of the best-scoring prefix
  u64 compared = 0;      ///< bases examined == scan length at exit
};

/// Length of the match run in a[0..limit) vs b[0..limit) scanning forward,
/// word-at-a-time. The first differing byte index is found with
/// countr_zero on the XOR of 8-byte windows.
u64 match_run_fwd(const char* a, const char* b, u64 limit) {
  u64 i = 0;
  while (i + sizeof(u64) <= limit) {
    u64 aw;
    u64 bw;
    std::memcpy(&aw, a + i, sizeof(u64));
    std::memcpy(&bw, b + i, sizeof(u64));
    const u64 x = aw ^ bw;
    if (x != 0) return i + static_cast<u64>(std::countr_zero(x)) / 8;
    i += sizeof(u64);
  }
  while (i < limit && a[i] == b[i]) ++i;
  return i;
}

/// Length of the match run comparing a[-1], a[-2], ... against b[-1],
/// b[-2], ... (scanning backwards, up to `limit` bases). The highest
/// differing byte of an 8-byte window is the first mismatch in scan order,
/// found with countl_zero.
u64 match_run_bwd(const char* a, const char* b, u64 limit) {
  u64 i = 0;
  while (i + sizeof(u64) <= limit) {
    u64 aw;
    u64 bw;
    std::memcpy(&aw, a - i - sizeof(u64), sizeof(u64));
    std::memcpy(&bw, b - i - sizeof(u64), sizeof(u64));
    const u64 x = aw ^ bw;
    if (x != 0) return i + static_cast<u64>(std::countl_zero(x)) / 8;
    i += sizeof(u64);
  }
  while (i < limit && a[-static_cast<i64>(i) - 1] == b[-static_cast<i64>(i) - 1]) {
    ++i;
  }
  return i;
}

// The scans process whole match runs instead of single bases. This is
// exact, not approximate: with +1/-2 scoring the score rises monotonically
// inside a run, so the x-drop break can only trigger at a mismatch and the
// best-prefix update only improves at a run's end. Each base of a run
// still counts one unit of bases_compared.

/// Forward scan: compares q[0..limit) against t[0..limit).
ScanResult scan_fwd_scalar(const char* q, const char* t, u64 limit,
                           int xdrop) {
  ScanResult r;
  int score = 0;
  int best_score = 0;
  u64 matched = 0;
  u64 len = 0;
  while (len < limit) {
    const u64 run = match_run_fwd(q + len, t + len, limit - len);
    score += static_cast<int>(run);
    matched += run;
    len += run;
    r.compared += run;
    if (score > best_score) {
      best_score = score;
      r.best_matched = matched;
      r.best_len = len;
    }
    if (len >= limit) break;
    ++r.compared;  // the mismatching base
    score -= 2;
    ++len;
    if (score <= best_score - xdrop) break;
  }
  return r;
}

/// Backward scan: compares q[-1], q[-2], ... against t[-1], t[-2], ... for
/// up to `limit` bases.
ScanResult scan_bwd_scalar(const char* q, const char* t, u64 limit,
                           int xdrop) {
  ScanResult r;
  int score = 0;
  int best_score = 0;
  u64 matched = 0;
  u64 len = 0;
  while (len < limit) {
    const u64 run = match_run_bwd(q - len, t - len, limit - len);
    score += static_cast<int>(run);
    matched += run;
    len += run;
    r.compared += run;
    if (score > best_score) {
      best_score = score;
      r.best_matched = matched;
      r.best_len = len;
    }
    if (len >= limit) break;
    ++r.compared;
    score -= 2;
    ++len;
    if (score <= best_score - xdrop) break;
  }
  return r;
}

std::string random_seq(Rng& rng, usize len) {
  std::string s;
  s.reserve(len);
  for (usize i = 0; i < len; ++i) s.push_back("ACGT"[rng.uniform(4)]);
  return s;
}

/// Copies `t` and flips each base with probability `p`, producing query/
/// text pairs whose mismatch density spans all-match to all-mismatch.
std::string corrupt(const std::string& t, Rng& rng, double p) {
  std::string q = t;
  for (char& c : q) {
    if (rng.chance(p)) c = "ACGT"[rng.uniform(4)];
  }
  return q;
}

/// One driver input: every (query, text) pair laid out back to back in a
/// read buffer and, at other offsets, in a text buffer (random filler
/// between pairs), with one forward or backward task per pair and the
/// oracle's answer for it.
struct DriverCase {
  explicit DriverCase(Rng& rng) : rng(rng) {}

  /// Adds the scan of `q` against `t` (equal lengths); a backward task
  /// scans from their ends toward their starts.
  void add(const std::string& q, const std::string& t, bool fwd, int xdrop) {
    const u64 len = q.size();
    text += random_seq(rng, rng.uniform(40));  // text offset != read's
    ScanTask task;
    task.fwd = fwd;
    task.limit = len;
    task.read_pos = fwd ? read.size() : read.size() + len;
    task.text_pos = fwd ? text.size() : text.size() + len;
    tasks.push_back(task);
    want.push_back(fwd ? scan_fwd_scalar(q.data(), t.data(), len, xdrop)
                       : scan_bwd_scalar(q.data() + len, t.data() + len,
                                         len, xdrop));
    read += q;
    text += t;
  }

  Rng& rng;
  std::string read;
  std::string text;
  std::vector<ScanTask> tasks;
  std::vector<ScanResult> want;
};

/// Strip levels this build compiled and this CPU can run.
std::vector<SimdLevel> runnable_strip_levels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    if (strip_mask_kernel(level) != nullptr &&
        level <= detected_simd_level()) {
      levels.push_back(level);
    }
  }
  return levels;
}

/// Runs the production driver over `c` with the strip kernel of `level`
/// and checks every task against the oracle.
void expect_driver_matches_oracle(const DriverCase& c, SimdLevel level,
                                   int xdrop, const std::string& what) {
  std::vector<ScanTask> tasks = c.tasks;  // fresh scan state per level
  // Exactly sized copies: a strip read past the last pair leaves the
  // allocation, which the ASan+UBSan job reports.
  const std::vector<char> read(c.read.begin(), c.read.end());
  const std::vector<char> text(c.text.begin(), c.text.end());
  std::vector<u32> live;
  run_scan_tasks({read.data(), read.size()}, {text.data(), text.size()},
                 xdrop, strip_mask_kernel(level), tasks, live);
  for (usize i = 0; i < tasks.size(); ++i) {
    SCOPED_TRACE(what + " level " + simd_level_name(level) + " task " +
                 std::to_string(i) + (tasks[i].fwd ? " fwd" : " bwd") +
                 " len " + std::to_string(tasks[i].limit));
    EXPECT_EQ(tasks[i].best_matched, c.want[i].best_matched);
    EXPECT_EQ(tasks[i].best_len, c.want[i].best_len);
    EXPECT_EQ(tasks[i].compared, c.want[i].compared);
    EXPECT_LE(tasks[i].compared, tasks[i].limit);
  }
}

TEST(SimdParity, XdropKernelsMatchScalarOnFuzzedInputs) {
  const std::vector<SimdLevel> levels = runnable_strip_levels();
  ASSERT_FALSE(levels.empty());
#ifdef STARATLAS_X86_SIMD
  // x86-64 guarantees SSE2, so SSE2 runs even where dispatch picks AVX2.
  EXPECT_GE(levels.size(), 2u) << "x86 build ran no SIMD strip level";
#endif

  const double densities[] = {0.0, 0.02, 0.1, 0.5, 1.0};
  const int xdrops[] = {1, 8, 100};

  Rng rng(0xf022);
  for (usize trial = 0; trial < 400; ++trial) {
    // Trials alternate between one forward + one backward task and a
    // batch of up to 12 mixed tasks, where the round-robin compaction of
    // `live` and the next-task prefetch act.
    const int xdrop = xdrops[trial % 3];
    const usize pairs = trial % 2 == 0 ? 1 : 1 + rng.uniform(6);
    DriverCase c(rng);
    for (usize p = 0; p < pairs; ++p) {
      for (const bool fwd : {true, false}) {
        const usize len = rng.uniform(301);  // 0..300: tails, multi-strip
        const std::string t = random_seq(rng, len);
        const double density =
            densities[(trial + p + (fwd ? 0 : 2)) % std::size(densities)];
        c.add(corrupt(t, rng, density), t, fwd, xdrop);
      }
    }
    for (const SimdLevel level : levels) {
      expect_driver_matches_oracle(c, level, xdrop,
                                   "trial " + std::to_string(trial));
    }
  }
}

TEST(SimdParity, XdropKernelsMatchScalarOnAdversarialShapes) {
  // Mismatches planted exactly at strip boundaries (15/16/17, 31/32/33...)
  // and runs that straddle them — the cases where a strip-local scan could
  // diverge from the run-based scalar loop. Each shape runs alone and in
  // one batch with every other shape.
  const usize boundaries[] = {0,  1,  14, 15, 16, 17, 30, 31, 32,
                              33, 47, 48, 63, 64, 65, 95, 96, 97};
  const usize len = 128;
  const std::vector<SimdLevel> levels = runnable_strip_levels();
  Rng rng(0xad5);
  for (const int xdrop : {1, 3, 8, 100}) {
    DriverCase batch(rng);
    for (const usize at : boundaries) {
      const std::string t(len, 'A');
      std::string q = t;
      q[at] = 'C';  // single mismatch at the boundary
      if (at + 1 < len) q[at + 1] = 'C';  // and a 2-run variant next to it
      DriverCase single(rng);
      for (const bool fwd : {true, false}) {
        single.add(q, t, fwd, xdrop);
        batch.add(q, t, fwd, xdrop);
      }
      for (const SimdLevel level : levels) {
        expect_driver_matches_oracle(single, level, xdrop,
                                     "boundary " + std::to_string(at));
      }
    }
    for (const SimdLevel level : levels) {
      expect_driver_matches_oracle(batch, level, xdrop, "all boundaries");
    }
  }
}

void expect_seed_results_eq(const SeedSearchResult& batch,
                            const SeedSearchResult& solo, usize read) {
  EXPECT_EQ(batch.mmp_calls, solo.mmp_calls) << "read " << read;
  EXPECT_EQ(batch.chars_matched, solo.chars_matched) << "read " << read;
  ASSERT_EQ(batch.seeds.size(), solo.seeds.size()) << "read " << read;
  for (usize s = 0; s < solo.seeds.size(); ++s) {
    EXPECT_EQ(batch.seeds[s].read_offset, solo.seeds[s].read_offset);
    EXPECT_EQ(batch.seeds[s].length, solo.seeds[s].length);
    EXPECT_EQ(batch.seeds[s].interval.lo, solo.seeds[s].interval.lo);
    EXPECT_EQ(batch.seeds[s].interval.hi, solo.seeds[s].interval.hi);
  }
}

TEST(SimdParity, FindSeedsBatchMatchesPerReadFindSeeds) {
  const auto& w = world();
  const AlignerParams params;
  const ReadSet reads =
      w.simulator->simulate(bulk_rna_profile(), 300, Rng(4242));

  std::vector<std::string_view> views;
  for (const auto& read : reads.reads) views.push_back(read.sequence);

  std::vector<SeedSearchResult> batch(views.size());
  SeedBatchScratch scratch;
  find_seeds_batch(w.index111, views, params, batch, scratch);

  SeedSearchResult solo;
  for (usize i = 0; i < views.size(); ++i) {
    find_seeds(w.index111, views[i], params, solo);
    expect_seed_results_eq(batch[i], solo, i);
  }
}

void expect_alignments_eq(const ReadAlignment& batch,
                          const ReadAlignment& solo, usize read) {
  EXPECT_EQ(batch.outcome, solo.outcome) << "read " << read;
  EXPECT_EQ(batch.best_score, solo.best_score) << "read " << read;
  EXPECT_EQ(batch.num_loci, solo.num_loci) << "read " << read;
  EXPECT_EQ(batch.repetitive_capped, solo.repetitive_capped) << "read " << read;
  ASSERT_EQ(batch.hits.size(), solo.hits.size()) << "read " << read;
  for (usize h = 0; h < solo.hits.size(); ++h) {
    EXPECT_EQ(batch.hits[h].text_pos, solo.hits[h].text_pos);
    EXPECT_EQ(batch.hits[h].reverse, solo.hits[h].reverse);
    EXPECT_EQ(batch.hits[h].score, solo.hits[h].score);
    ASSERT_EQ(batch.hits[h].segments.size(), solo.hits[h].segments.size());
    for (usize s = 0; s < solo.hits[h].segments.size(); ++s) {
      EXPECT_EQ(batch.hits[h].segments[s].read_start,
                solo.hits[h].segments[s].read_start);
      EXPECT_EQ(batch.hits[h].segments[s].text_start,
                solo.hits[h].segments[s].text_start);
      EXPECT_EQ(batch.hits[h].segments[s].length,
                solo.hits[h].segments[s].length);
    }
  }
}

TEST(SimdParity, AlignBatchMatchesPerReadAlign) {
  const auto& w = world();
  const Aligner aligner(w.index111, AlignerParams{});
  const ReadSet reads =
      w.simulator->simulate(bulk_rna_profile(), 300, Rng(31337));

  // Per-read reference path.
  AlignWorkspace solo_ws;
  MappingStats solo_stats;
  std::vector<ReadAlignment> solo(reads.reads.size());
  for (usize i = 0; i < reads.reads.size(); ++i) {
    aligner.align(reads.reads[i].sequence, solo_ws, solo_stats, solo[i]);
  }

  // Batched path, in uneven chunk sizes (partial lanes, sub-lane chunks).
  AlignWorkspace batch_ws;
  MappingStats batch_stats;
  std::vector<ReadAlignment> batch(reads.reads.size());
  std::vector<std::string_view> views;
  usize begin = 0;
  const usize chunks[] = {1, 7, 64, 100, 128};
  for (usize c = 0; begin < reads.reads.size(); ++c) {
    const usize count =
        std::min(chunks[c % 5], reads.reads.size() - begin);
    views.clear();
    for (usize i = begin; i < begin + count; ++i) {
      views.push_back(reads.reads[i].sequence);
    }
    aligner.align_batch(views, batch_ws, batch_stats,
                        std::span(batch).subspan(begin, count));
    begin += count;
  }

  for (usize i = 0; i < reads.reads.size(); ++i) {
    expect_alignments_eq(batch[i], solo[i], i);
  }
  EXPECT_EQ(batch_stats.processed, solo_stats.processed);
  EXPECT_EQ(batch_stats.unique, solo_stats.unique);
  EXPECT_EQ(batch_stats.multi, solo_stats.multi);
  EXPECT_EQ(batch_stats.too_many, solo_stats.too_many);
  EXPECT_EQ(batch_stats.unmapped, solo_stats.unmapped);
  EXPECT_EQ(batch_stats.seeds_generated, solo_stats.seeds_generated);
  EXPECT_EQ(batch_stats.windows_scored, solo_stats.windows_scored);
  EXPECT_EQ(batch_stats.bases_compared, solo_stats.bases_compared);
}

}  // namespace
}  // namespace staratlas
