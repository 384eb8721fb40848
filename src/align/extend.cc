#include "align/extend.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.h"

#if defined(STARATLAS_X86_SIMD)
#include <immintrin.h>
#endif

namespace staratlas {

namespace {

// ---------------------------------------------------------------------------
// Striped multi-window extension driver.
//
// Running one X-drop scan per window end, to completion, before touching
// the next window would make every window pay its own text-fetch latency
// serially. The driver below instead records all of a read's extension
// tasks first, then advances them round-robin one 32-base strip at a time,
// prefetching the next task's strip while the current one is consumed —
// several genomic windows' cache misses overlap instead of queuing.
//
// Each strip is one mismatch bitmap (bit i = base i of the strip differs),
// built by byte compares (scalar SWAR / SSE2 / AVX2 movemask) and consumed
// whole match runs at a time with ctz/clz. This is exact, not approximate:
// with +1/-2 scoring the score rises monotonically inside a run, so the
// x-drop break only fires at a mismatch and a best-prefix update at a
// strip boundary is superseded at the true run end; each base of a run
// still counts one unit of `compared`. Results therefore equal a plain
// per-window scalar scan's, which the SimdParity tests check at every
// compiled strip level against a run-loop oracle kept in tests/.
// ---------------------------------------------------------------------------

/// 32-byte mismatch bitmap of a[0..32) vs b[0..32), scalar reference:
/// per-word XOR, SWAR zero-byte test, multiply-gather of the byte flags.
u32 strip_mask_scalar(const char* a, const char* b) {
  u32 m = 0;
  for (u32 w = 0; w < 4; ++w) {
    u64 aw;
    u64 bw;
    std::memcpy(&aw, a + w * 8, sizeof(u64));
    std::memcpy(&bw, b + w * 8, sizeof(u64));
    const u64 x = aw ^ bw;
    // High bit of each byte set iff that byte is zero (== bytes match).
    const u64 z = (x - 0x0101010101010101ULL) & ~x & 0x8080808080808080ULL;
    // Gather the eight flag bits (positions 8k+7) into one byte. The magic
    // constant routes flag k to result bit 56+k with provably no carries
    // (all partial-product bit positions are distinct).
    const u32 eq = static_cast<u32>((z * 0x0002040810204081ULL) >> 56);
    m |= (~eq & 0xFFu) << (w * 8);
  }
  return m;
}

#if defined(STARATLAS_X86_SIMD)
u32 strip_mask_sse2(const char* a, const char* b) {
  const __m128i a0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const __m128i a1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + 16));
  const __m128i b1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + 16));
  const u32 lo = static_cast<u32>(_mm_movemask_epi8(_mm_cmpeq_epi8(a0, b0)));
  const u32 hi = static_cast<u32>(_mm_movemask_epi8(_mm_cmpeq_epi8(a1, b1)));
  return ~(lo | (hi << 16));
}

__attribute__((target("avx2"))) u32 strip_mask_avx2(const char* a,
                                                    const char* b) {
  const __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  const __m256i bv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  return ~static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(av, bv)));
}
#endif  // STARATLAS_X86_SIMD

StripMaskFn strip_kernel() {
  static const StripMaskFn kFn =
      pick_kernel(strip_mask_kernel(SimdLevel::kScalar),
                  strip_mask_kernel(SimdLevel::kSse2),
                  strip_mask_kernel(SimdLevel::kAvx2));
  return kFn;
}

/// Consumes one forward strip (mask bit 0 = first base in scan order).
/// Returns true when the x-drop break fired, ending the task.
bool consume_strip_fwd(ScanTask& t, u32 m, int xdrop) {
  u32 pos = 0;
  while (pos < 32) {
    const u32 rest = m >> pos;
    const u32 run =
        rest == 0 ? 32 - pos : static_cast<u32>(std::countr_zero(rest));
    t.score += static_cast<int>(run);
    t.matched += run;
    t.len += run;
    t.compared += run;
    pos += run;
    if (t.score > t.best_score) {
      t.best_score = t.score;
      t.best_matched = t.matched;
      t.best_len = t.len;
    }
    if (rest == 0) break;
    ++t.compared;  // the mismatching base
    t.score -= 2;
    ++t.len;
    ++pos;
    if (t.score <= t.best_score - xdrop) return true;
  }
  return false;
}

/// Backward twin: the strip covers the 32 bases just before the scan
/// front, so the first base in scan order is mask bit 31 and runs are
/// counted with clz.
bool consume_strip_bwd(ScanTask& t, u32 m, int xdrop) {
  u32 pos = 0;
  while (pos < 32) {
    const u32 rest = m << pos;
    const u32 run =
        rest == 0 ? 32 - pos : static_cast<u32>(std::countl_zero(rest));
    t.score += static_cast<int>(run);
    t.matched += run;
    t.len += run;
    t.compared += run;
    pos += run;
    if (t.score > t.best_score) {
      t.best_score = t.score;
      t.best_matched = t.matched;
      t.best_len = t.len;
    }
    if (rest == 0) break;
    ++t.compared;
    t.score -= 2;
    ++t.len;
    ++pos;
    if (t.score <= t.best_score - xdrop) return true;
  }
  return false;
}

/// All read/text context one driver pass needs; tasks hold positions only.
struct StripedDriver {
  std::string_view read;
  std::string_view text;
  int xdrop = 0;
  StripMaskFn mask = nullptr;

  u32 strip_mask(const ScanTask& t) const {
    const u64 tp = t.fwd ? t.text_pos + t.len : t.text_pos - t.len - 32;
    const u64 qp = t.fwd ? t.read_pos + t.len : t.read_pos - t.len - 32;
    return mask(read.data() + qp, text.data() + tp);
  }

  void prefetch(const ScanTask& t) const {
    const u64 tp = t.fwd ? t.text_pos + t.len : t.text_pos - t.len - 32;
    __builtin_prefetch(text.data() + tp);
  }

  /// Finishes a task per-base: the sub-strip tail shorter than a strip.
  /// Identical outcomes to the strip loop — the incremental best update is
  /// superseded exactly like a strip-boundary update.
  void finish_per_base(ScanTask& t) const {
    while (t.len < t.limit) {
      const bool match =
          t.fwd ? read[t.read_pos + t.len] == text[t.text_pos + t.len]
                : read[t.read_pos - t.len - 1] ==
                      text[t.text_pos - t.len - 1];
      ++t.compared;
      ++t.len;
      if (match) {
        ++t.score;
        ++t.matched;
        if (t.score > t.best_score) {
          t.best_score = t.score;
          t.best_matched = t.matched;
          t.best_len = t.len;
        }
      } else {
        t.score -= 2;
        if (t.score <= t.best_score - xdrop) return;
      }
    }
  }

};

/// Chains the window's loci (sorted by read_offset) with the classic
/// O(L^2) DP, maximizing total seed-matched bases under colinearity and
/// the intron cap. Writes the best chain's indices, ascending, into
/// ws.chain; the DP bands live in ws and are reused across windows.
void chain_window(const std::vector<SeedLocus>& loci,
                  const AlignerParams& params, ExtendWorkspace& ws,
                  u64& bases_compared) {
  const usize n = loci.size();
  ws.chain_score.assign(n, 0);
  ws.chain_prev.assign(n, -1);
  // The O(L^2) pair loop below dominates repeat-heavy reads. Work on raw
  // pointers and local accumulators: stores through the workspace members
  // (or the counter reference) may alias the arrays being read, which
  // forces the compiler to reload them every iteration. (A branchless
  // predicated variant was measured ~15-20% slower on repeat-heavy reads:
  // the early-out tests are well predicted, so predication only adds work.)
  const SeedLocus* const lp = loci.data();
  u64* const score = ws.chain_score.data();
  i64* const prev = ws.chain_prev.data();
  const u64 max_intron = params.max_intron;
  u64 compared = 0;
  usize best = 0;
  for (usize i = 0; i < n; ++i) {
    const SeedLocus& b = lp[i];
    u64 best_i = b.length;
    i64 prev_i = -1;
    for (usize j = 0; j < i; ++j) {
      ++compared;  // chaining work is real work
      const SeedLocus& a = lp[j];
      if (a.read_end() > b.read_offset) continue;       // read overlap
      if (a.text_end() > b.text_start) continue;        // genome overlap
      const u64 read_gap = b.read_offset - a.read_end();
      const u64 text_gap = b.text_start - a.text_end();
      if (text_gap < read_gap) continue;                // insertion: skip
      if (text_gap - read_gap > max_intron) continue;
      if (score[j] + b.length > best_i) {
        best_i = score[j] + b.length;
        prev_i = static_cast<i64>(j);
      }
    }
    score[i] = best_i;
    prev[i] = prev_i;
    if (best_i > score[best]) best = i;
  }
  bases_compared += compared;
  ws.chain.clear();
  for (i64 at = static_cast<i64>(best); at >= 0; at = prev[at]) {
    ws.chain.push_back(static_cast<usize>(at));
  }
  std::reverse(ws.chain.begin(), ws.chain.end());
}

}  // namespace

StripMaskFn strip_mask_kernel(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &strip_mask_scalar;
#if defined(STARATLAS_X86_SIMD)
    case SimdLevel::kSse2:
      return &strip_mask_sse2;
    case SimdLevel::kAvx2:
      return &strip_mask_avx2;
#else
    case SimdLevel::kSse2:
    case SimdLevel::kAvx2:
      break;
#endif
  }
  return nullptr;
}

void run_scan_tasks(std::string_view read, std::string_view text, int xdrop,
                    StripMaskFn mask, std::span<ScanTask> tasks,
                    std::vector<u32>& live) {
  const StripedDriver driver{read, text, xdrop, mask};
  live.clear();
  for (usize i = 0; i < tasks.size(); ++i) {
    if (tasks[i].len + 32 <= tasks[i].limit) {
      live.push_back(static_cast<u32>(i));
    }
  }
  while (!live.empty()) {
    usize out = 0;
    for (usize k = 0; k < live.size(); ++k) {
      ScanTask& t = tasks[live[k]];
      if (k + 1 < live.size()) driver.prefetch(tasks[live[k + 1]]);
      const u32 m = driver.strip_mask(t);
      const bool broke = t.fwd ? consume_strip_fwd(t, m, xdrop)
                               : consume_strip_bwd(t, m, xdrop);
      if (broke) {
        t.done = true;
        continue;
      }
      if (t.len + 32 <= t.limit) live[out++] = live[k];
    }
    live.resize(out);
  }
  for (ScanTask& t : tasks) {
    if (!t.done) driver.finish_per_base(t);
  }
}

void score_windows(const GenomeIndex& index, std::string_view read,
                   const std::vector<Seed>& seeds, bool reverse,
                   const AlignerParams& params, ExtendStats& stats,
                   ExtendWorkspace& ws, std::vector<AlignmentHit>& hits) {
  const std::string_view text = index.text();

  // 1. Enumerate loci (capped per seed for hyper-repetitive seeds).
  ws.loci.clear();
  for (const Seed& seed : seeds) {
    u32 count = seed.interval.count();
    if (count > params.anchor_max_loci) {
      stats.capped = true;
      count = params.anchor_max_loci;
    }
    for (u32 k = 0; k < count; ++k) {
      const GenomePos pos = index.sa_position(seed.interval.lo + k);
      if (pos < seed.read_offset) continue;  // read would start before text 0
      ws.loci.push_back(
          {seed.read_offset, seed.length, pos, index.locate(pos).contig});
      ++stats.loci_enumerated;
    }
  }
  if (ws.loci.empty()) return;

  // 2. Cluster by (contig, diagonal): alignments can never span contigs
  //    (STAR's windows are likewise per-contig bins), and within a contig
  //    a diagonal gap above the intron cap starts a new genomic window.
  std::sort(ws.loci.begin(), ws.loci.end(),
            [](const SeedLocus& a, const SeedLocus& b) {
              if (a.contig != b.contig) return a.contig < b.contig;
              return a.diagonal() < b.diagonal();
            });

  // Phase A: per window, chain + gap compares + segment assembly; the end
  // extensions are only *recorded* as ScanTasks here.
  ws.plans.clear();
  ws.plan_segments.clear();
  ws.tasks.clear();
  usize window_begin = 0;
  for (usize i = 1; i <= ws.loci.size(); ++i) {
    const bool boundary =
        i == ws.loci.size() || ws.loci[i].contig != ws.loci[i - 1].contig ||
        ws.loci[i].diagonal() - ws.loci[i - 1].diagonal() >
            static_cast<i64>(params.max_intron);
    if (!boundary) continue;

    // Window is loci[window_begin, i).
    ws.window.assign(ws.loci.begin() + static_cast<i64>(window_begin),
                     ws.loci.begin() + static_cast<i64>(i));
    window_begin = i;
    ++stats.windows_scored;

    // Bound the chaining DP on pathological windows (tandem repeats).
    if (ws.window.size() > params.window_loci_cap) {
      ws.window.resize(params.window_loci_cap);
    }
    std::sort(ws.window.begin(), ws.window.end(),
              [](const SeedLocus& a, const SeedLocus& b) {
                if (a.read_offset != b.read_offset) {
                  return a.read_offset < b.read_offset;
                }
                return a.text_start < b.text_start;
              });
    chain_window(ws.window, params, ws, stats.bases_compared);
    if (ws.chain.empty()) continue;
    const std::vector<usize>& chain = ws.chain;
    const std::vector<SeedLocus>& window = ws.window;

    WindowPlan plan;
    plan.seg_begin = static_cast<u32>(ws.plan_segments.size());
    u64 matched = 0;
    for (usize c = 0; c < chain.size(); ++c) {
      const SeedLocus& locus = window[chain[c]];
      matched += locus.length;
      ws.plan_segments.push_back(
          {locus.read_offset, locus.text_start, locus.length});
      if (c == 0) continue;
      const SeedLocus& prior = window[chain[c - 1]];
      const u64 read_gap = locus.read_offset - prior.read_end();
      const u64 text_gap = locus.text_start - prior.text_end();
      if (read_gap == 0) continue;
      // Compare gap bases on the downstream diagonal (attributing the gap
      // to the downstream exon; adequate at our error rates).
      const GenomePos gap_text = locus.text_start - read_gap;
      u64 gap_matched = 0;
      for (u64 g = 0; g < read_gap; ++g) {
        if (read[prior.read_end() + g] == text[gap_text + g]) {
          ++gap_matched;
        }
      }
      stats.bases_compared += read_gap;
      matched += gap_matched;
      (void)text_gap;
    }
    plan.seg_end = static_cast<u32>(ws.plan_segments.size());
    plan.matched = matched;

    const SeedLocus& first = window[chain.front()];
    ScanTask left;
    left.read_pos = first.read_offset;
    left.text_pos = first.text_start;
    left.limit = std::min<u64>(first.read_offset, first.text_start);
    left.fwd = false;
    plan.left_task = static_cast<u32>(ws.tasks.size());
    ws.tasks.push_back(left);

    const SeedLocus& last = window[chain.back()];
    ScanTask right;
    right.read_pos = last.read_end();
    right.text_pos = last.text_end();
    right.limit = std::min<u64>(read.size() - last.read_end(),
                                text.size() - last.text_end());
    right.fwd = true;
    plan.right_task = static_cast<u32>(ws.tasks.size());
    ws.tasks.push_back(right);

    ws.plans.push_back(plan);
  }

  // Phase B: one striped pass extends every window's ends together.
  run_scan_tasks(read, text, params.xdrop, strip_kernel(), ws.tasks, ws.live);

  // Phase C: apply extensions and emit hits in original window order, so
  // output and counters match the serial per-window path exactly.
  for (const WindowPlan& plan : ws.plans) {
    const ScanTask& left = ws.tasks[plan.left_task];
    const ScanTask& right = ws.tasks[plan.right_task];
    stats.bases_compared += left.compared + right.compared;
    const u64 matched = plan.matched + left.best_matched + right.best_matched;

    AlignedSegment* segs = ws.plan_segments.data() + plan.seg_begin;
    const usize nseg = plan.seg_end - plan.seg_begin;
    if (left.best_len > 0) {
      segs[0].read_start -= left.best_len;
      segs[0].text_start -= left.best_len;
      segs[0].length += left.best_len;
    }
    if (right.best_len > 0) segs[nseg - 1].length += right.best_len;

    const u32 score = static_cast<u32>(std::min<u64>(matched, read.size()));
    if (score == 0) continue;

    // Merge segments that are contiguous in both read and text (gap filled
    // on the same diagonal) directly into the hit's inline storage.
    AlignmentHit& hit = hits.emplace_back();
    hit.reverse = reverse;
    hit.score = score;
    for (usize s = 0; s < nseg; ++s) {
      const AlignedSegment& segment = segs[s];
      if (!hit.segments.empty()) {
        AlignedSegment& tail = hit.segments.back();
        const u64 read_gap =
            segment.read_start - (tail.read_start + tail.length);
        const u64 text_gap =
            segment.text_start - (tail.text_start + tail.length);
        if (read_gap == text_gap) {
          tail.length = segment.read_start + segment.length - tail.read_start;
          continue;
        }
      }
      hit.segments.push_back(segment);
    }
    hit.text_pos = hit.segments.front().text_start;
  }
}

std::vector<AlignmentHit> score_windows(const GenomeIndex& index,
                                        std::string_view read,
                                        const std::vector<Seed>& seeds,
                                        bool reverse,
                                        const AlignerParams& params,
                                        ExtendStats& stats) {
  ExtendWorkspace ws;
  std::vector<AlignmentHit> hits;
  score_windows(index, read, seeds, reverse, params, stats, ws, hits);
  return hits;
}

}  // namespace staratlas
