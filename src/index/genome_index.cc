#include "index/genome_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "common/thread_pool.h"
#include "index/packed_sequence.h"
#include "index/suffix_array.h"
#include "io/binary.h"

namespace staratlas {

namespace {
constexpr char kSeparator = '#';
constexpr u32 kIndexMagic = 0x53544152;  // "STAR"
constexpr u64 kSectionAlign = 4096;      // page size: mmap'd sections start here

// v3 section ids, in file order.
enum SectionId : u32 {
  kSecMeta = 1,
  kSecText = 2,
  kSecSa = 3,
  kSecLut = 4,
  kSecMini1 = 5,  // 5..8 = cascade LUTs k=1..4
};
constexpr usize kNumSections = 8;
// Header: magic u32, version u32, count u64, then per section
// {id u32, reserved u32, offset u64, length u64, checksum u64}.
constexpr u64 kSectionEntryBytes = 32;

u32 auto_lut_k(u64 text_size) {
  // Aim for 4^k ~ text_size / 16 so the LUT is dense but small.
  u32 k = 4;
  u64 cells = 256;
  while (cells * 16 < text_size && k < 12) {
    ++k;
    cells *= 4;
  }
  return k;
}

u64 align_up(u64 v, u64 alignment) {
  return (v + alignment - 1) / alignment * alignment;
}

[[noreturn]] void corrupt(const std::string& what) {
  throw ParseError("index corrupt: " + what);
}

// LCP of `query` with the suffix at text position `pos`, given that the
// first `depth` characters match: a word at a time, first differing byte
// by ctz (little-endian). mmp()'s single-candidate scan and every compare
// of the batch walker.
u64 suffix_lcp(std::string_view text, u64 pos, std::string_view query,
               u64 depth) {
  const u64 limit = std::min<u64>(query.size(), text.size() - pos);
  const char* t = text.data() + pos;
  const char* q = query.data();
  while (depth + sizeof(u64) <= limit) {
    u64 tw;
    u64 qw;
    std::memcpy(&tw, t + depth, sizeof(u64));
    std::memcpy(&qw, q + depth, sizeof(u64));
    if (tw != qw) {
      return depth + static_cast<u64>(std::countr_zero(tw ^ qw)) / 8;
    }
    depth += sizeof(u64);
  }
  while (depth < limit && t[depth] == q[depth]) ++depth;
  return depth;
}

}  // namespace

GenomeIndex GenomeIndex::build(const Assembly& assembly,
                               const IndexParams& params) {
  STARATLAS_CHECK(assembly.num_contigs() > 0);
  GenomeIndex index;
  index.species_ = assembly.species();
  index.release_ = assembly.release();
  index.type_ = assembly.type();

  const usize threads =
      params.num_threads == 0
          ? std::max<usize>(1, std::thread::hardware_concurrency())
          : params.num_threads;

  // Contig offsets are a pure prefix sum, so the text buffer can be
  // preallocated and contigs copied into their slots independently.
  u64 total = 0;
  for (const auto& contig : assembly.contigs()) {
    total += contig.length() + 1;
  }
  std::string& text = index.storage_.text_owned;
  text.resize(total - 1);  // no trailing separator
  index.contigs_.reserve(assembly.num_contigs());
  u64 offset = 0;
  for (const auto& contig : assembly.contigs()) {
    ContigMeta meta;
    meta.name = contig.name;
    meta.cls = contig.cls;
    meta.text_offset = offset;
    meta.length = contig.length();
    index.contigs_.push_back(std::move(meta));
    offset += contig.length() + 1;
  }
  const auto copy_contigs = [&](usize begin, usize end) {
    for (usize c = begin; c < end; ++c) {
      const ContigMeta& meta = index.contigs_[c];
      std::memcpy(text.data() + meta.text_offset,
                  assembly.contigs()[c].sequence.data(), meta.length);
      if (c + 1 < index.contigs_.size()) {
        text[meta.text_offset + meta.length] = kSeparator;
      }
    }
  };

  index.lut_k_ = params.prefix_lut_k ? params.prefix_lut_k
                                     : auto_lut_k(text.size());
  STARATLAS_CHECK(index.lut_k_ >= 2 && index.lut_k_ <= 14);

  if (threads > 1) {
    ThreadPool pool(threads);
    parallel_for_blocks(pool, index.contigs_.size(), copy_contigs);
    index.storage_.sa_owned = build_suffix_array_parallel(text, pool);
    index.build_lut_parallel(pool);
    index.build_mini_luts_parallel(pool);
  } else {
    copy_contigs(0, index.contigs_.size());
    index.storage_.sa_owned = build_suffix_array(text);
    index.build_lut();
    index.build_mini_luts();
  }
  return index;
}

void GenomeIndex::build_lut() {
  const std::string& text = storage_.text_owned;
  const std::vector<u32>& sa = storage_.sa_owned;
  const u64 cells = u64{1} << (2 * lut_k_);
  storage_.lut_owned.assign(cells, {0, 0});
  auto& lut = storage_.lut_owned;

  // Walk the suffix array once; suffixes beginning with the same pure-ACGT
  // k-mer form one contiguous block, and block codes appear in increasing
  // order (byte order of A<C<G<T matches code order).
  u64 current_code = ~u64{0};
  for (usize row = 0; row < sa.size(); ++row) {
    const u64 pos = sa[row];
    if (pos + lut_k_ > text.size()) continue;
    u64 code = 0;
    bool valid = true;
    for (u32 j = 0; j < lut_k_; ++j) {
      const u8 b = base_code(text[pos + j]);
      if (b == 0xff) {
        valid = false;
        break;
      }
      code = (code << 2) | b;
    }
    if (!valid) continue;
    if (code != current_code) {
      current_code = code;
      lut[code][0] = static_cast<u32>(row);
    }
    lut[code][1] = static_cast<u32>(row) + 1;
  }
}

void GenomeIndex::build_lut_parallel(ThreadPool& pool) {
  const std::string& text = storage_.text_owned;
  const std::vector<u32>& sa = storage_.sa_owned;
  const u64 cells = u64{1} << (2 * lut_k_);
  storage_.lut_owned.assign(cells, {0, 0});
  auto& lut = storage_.lut_owned;

  // Sharded single pass: each shard scans a contiguous SA row range and
  // emits its (code, lo, hi) runs in row order. Because the rows of one
  // k-mer are contiguous in the SA, a run split across shards merges by
  // extending hi; merging in shard order makes the result independent of
  // scheduling and equal to the sequential walk.
  struct Run {
    u64 code;
    u32 lo;
    u32 hi;
  };
  const usize shards = std::min<usize>(sa.size(), pool.size() * 4);
  if (shards == 0) return;
  std::vector<std::vector<Run>> shard_runs(shards);
  const usize per_shard = (sa.size() + shards - 1) / shards;
  std::vector<std::future<void>> futures;
  futures.reserve(shards);
  for (usize s = 0; s < shards; ++s) {
    futures.push_back(pool.submit([&, s] {
      const usize begin = s * per_shard;
      const usize end = std::min(sa.size(), begin + per_shard);
      std::vector<Run>& runs = shard_runs[s];
      u64 current_code = ~u64{0};
      for (usize row = begin; row < end; ++row) {
        const u64 pos = sa[row];
        if (pos + lut_k_ > text.size()) continue;
        u64 code = 0;
        bool valid = true;
        for (u32 j = 0; j < lut_k_; ++j) {
          const u8 b = base_code(text[pos + j]);
          if (b == 0xff) {
            valid = false;
            break;
          }
          code = (code << 2) | b;
        }
        if (!valid) continue;
        if (code != current_code) {
          current_code = code;
          runs.push_back({code, static_cast<u32>(row), static_cast<u32>(row)});
        }
        runs.back().hi = static_cast<u32>(row) + 1;
      }
    }));
  }
  for (auto& f : futures) f.get();
  for (const auto& runs : shard_runs) {
    for (const Run& run : runs) {
      auto& cell = lut[run.code];
      if (cell[0] == cell[1]) cell[0] = run.lo;
      cell[1] = run.hi;
    }
  }
}

void GenomeIndex::build_mini_luts() {
  const std::string& text = storage_.text_owned;
  const std::vector<u32>& sa = storage_.sa_owned;
  for (u32 k = 1; k <= 4; ++k) {
    storage_.mini_owned[k - 1].assign(u64{1} << (2 * k), {0, 0});
  }
  // One SA pass; each row contributes to every prefix length its leading
  // pure-ACGT run covers. Unlike the main LUT, a block here includes
  // suffixes with a separator or N *after* the prefix — exactly the set
  // incremental narrowing from the full range would produce.
  for (usize row = 0; row < sa.size(); ++row) {
    const u64 pos = sa[row];
    u64 code = 0;
    for (u32 k = 1; k <= 4; ++k) {
      if (pos + k > text.size()) break;
      const u8 b = base_code(text[pos + k - 1]);
      if (b == 0xff) break;
      code = (code << 2) | b;
      auto& cell = storage_.mini_owned[k - 1][code];
      if (cell[0] == cell[1]) cell[0] = static_cast<u32>(row);
      cell[1] = static_cast<u32>(row) + 1;
    }
  }
}

void GenomeIndex::build_mini_luts_parallel(ThreadPool& pool) {
  const std::string& text = storage_.text_owned;
  const std::vector<u32>& sa = storage_.sa_owned;
  for (u32 k = 1; k <= 4; ++k) {
    storage_.mini_owned[k - 1].assign(u64{1} << (2 * k), {0, 0});
  }
  // 340 cells per shard — shard-local copies are cheap, and merging them
  // in shard order (same contiguous-block argument as the main LUT) keeps
  // the result bit-identical to the sequential pass.
  using MiniSet = std::array<std::vector<LutCell>, 4>;
  const usize shards = std::min<usize>(sa.size(), pool.size() * 4);
  if (shards == 0) return;
  std::vector<MiniSet> shard_minis(shards);
  const usize per_shard = (sa.size() + shards - 1) / shards;
  std::vector<std::future<void>> futures;
  futures.reserve(shards);
  for (usize s = 0; s < shards; ++s) {
    futures.push_back(pool.submit([&, s] {
      MiniSet& local = shard_minis[s];
      for (u32 k = 1; k <= 4; ++k) {
        local[k - 1].assign(u64{1} << (2 * k), {0, 0});
      }
      const usize begin = s * per_shard;
      const usize end = std::min(sa.size(), begin + per_shard);
      for (usize row = begin; row < end; ++row) {
        const u64 pos = sa[row];
        u64 code = 0;
        for (u32 k = 1; k <= 4; ++k) {
          if (pos + k > text.size()) break;
          const u8 b = base_code(text[pos + k - 1]);
          if (b == 0xff) break;
          code = (code << 2) | b;
          auto& cell = local[k - 1][code];
          if (cell[0] == cell[1]) cell[0] = static_cast<u32>(row);
          cell[1] = static_cast<u32>(row) + 1;
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  for (const MiniSet& local : shard_minis) {
    for (u32 k = 1; k <= 4; ++k) {
      auto& global = storage_.mini_owned[k - 1];
      const auto& shard = local[k - 1];
      for (usize code = 0; code < shard.size(); ++code) {
        if (shard[code][0] == shard[code][1]) continue;  // untouched
        auto& cell = global[code];
        if (cell[0] == cell[1]) cell[0] = shard[code][0];
        cell[1] = shard[code][1];
      }
    }
  }
}

ContigLocus GenomeIndex::locate(GenomePos text_pos) const {
  STARATLAS_CHECK(text_pos < storage_.text().size());
  // Binary search for the contig whose [text_offset, text_offset+length)
  // contains text_pos.
  usize lo = 0;
  usize hi = contigs_.size();
  while (lo + 1 < hi) {
    const usize mid = (lo + hi) / 2;
    if (contigs_[mid].text_offset <= text_pos) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const ContigMeta& meta = contigs_[lo];
  STARATLAS_CHECK(text_pos >= meta.text_offset &&
                  text_pos < meta.text_offset + meta.length);
  return {static_cast<ContigId>(lo), text_pos - meta.text_offset};
}

SaInterval GenomeIndex::extend_interval(SaInterval interval, usize depth,
                                        char c) const {
  if (interval.empty()) return interval;
  const std::string_view text = storage_.text();
  const std::span<const u32> sa = storage_.sa();
  // Among suffixes in [lo, hi) — all sharing the same `depth`-char prefix —
  // find the subrange whose next character is `c`. Suffixes shorter than
  // depth+1 sort first within the range.
  const auto char_at = [&](u32 row) -> int {
    const u64 pos = static_cast<u64>(sa[row]) + depth;
    if (pos >= text.size()) return -1;
    return static_cast<unsigned char>(text[pos]);
  };
  const int target = static_cast<unsigned char>(c);
  u32 lo = interval.lo;
  u32 hi = interval.hi;
  // lower_bound for target.
  {
    u32 a = lo;
    u32 b = hi;
    while (a < b) {
      const u32 mid = a + (b - a) / 2;
      if (char_at(mid) < target) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    lo = a;
  }
  // upper_bound for target.
  {
    u32 a = lo;
    u32 b = hi;
    while (a < b) {
      const u32 mid = a + (b - a) / 2;
      if (char_at(mid) <= target) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    hi = a;
  }
  return {lo, hi};
}

MmpResult GenomeIndex::mmp(std::string_view query) const {
  MmpResult result;
  mmp(query, result);
  return result;
}

void GenomeIndex::mmp(std::string_view query, MmpResult& result) const {
  const std::span<const u32> sa = storage_.sa();
  const std::span<const LutCell> lut = storage_.lut();
  SaInterval interval{0, static_cast<u32>(sa.size())};
  usize depth = 0;

  // Jump-start with the prefix LUT when the leading k-mer is pure ACGT.
  if (query.size() >= lut_k_) {
    u64 code = 0;
    bool valid = true;
    for (u32 j = 0; j < lut_k_; ++j) {
      const u8 b = base_code(query[j]);
      if (b == 0xff) {
        valid = false;
        break;
      }
      code = (code << 2) | b;
    }
    if (valid) {
      const SaInterval hit{lut[code][0], lut[code][1]};
      if (!hit.empty()) {
        interval = hit;
        depth = lut_k_;
      }
      // If the k-mer is absent the MMP is shorter than k; fall through to
      // the cascade below.
    }
  }

  // Main LUT could not jump (short query, absent k-mer, or an early N):
  // jump with the longest cascade LUT whose block is nonempty. This pins
  // the walk to a short-prefix SA block instead of binary-searching down
  // from the full range — the case every failing seed walk and every
  // read-tail restart hits.
  if (depth == 0 && !query.empty()) {
    u64 code = 0;
    u32 pure = 0;
    const u32 kmax = static_cast<u32>(std::min<usize>(4, query.size()));
    for (u32 j = 0; j < kmax; ++j) {
      const u8 b = base_code(query[j]);
      if (b == 0xff) break;
      code = (code << 2) | b;
      ++pure;
    }
    for (u32 k = pure; k >= 1; --k) {
      const auto& cell = storage_.mini(k)[code >> (2 * (pure - k))];
      const SaInterval hit{cell[0], cell[1]};
      if (!hit.empty()) {
        interval = hit;
        depth = k;
        break;
      }
    }
  }

  // Narrow one query character per equal-range pass until the next
  // character is absent or a single candidate suffix is left. A single
  // candidate is compared against the text directly: narrowing further
  // would only re-confirm its row, and the compare turns O(log n) SA
  // probes per character into word compares. Unique reads spend most of
  // their walk in that scan. The batch walker's binary search is tested
  // against this walk.
  while (depth < query.size()) {
    if (interval.count() == 1) {
      depth = suffix_lcp(storage_.text(), sa[interval.lo], query, depth);
      break;
    }
    const SaInterval narrowed = extend_interval(interval, depth, query[depth]);
    if (narrowed.empty()) break;
    interval = narrowed;
    ++depth;
  }
  result.length = depth;
  result.interval = depth > 0 ? interval : SaInterval{};
}

namespace {

/// Lockstep batch walker behind GenomeIndex::mmp_batch. Lane state is
/// struct-of-arrays so each phase runs as a tight loop over a dense list of
/// the lanes in that phase.
///
/// Lane life cycle. A lane holds one query from claim to result:
///   claim:   the feed hands the free lane a query; its leading k-mer code
///            is computed and the LUT cell prefetched.
///   jump:    one step later the cell is read (mini-LUT cascade fallback,
///            exactly as mmp()), leaving the lane searching, direct or
///            finished.
///   search:  an interval [lo, hi) of more than kT rows, all sharing the
///            jump depth d with the query, is searched the way STAR finds
///            an MMP, one SA probe per step:
///            1. Insertion search. Bisect [lo, hi) for the query's
///               insertion point, comparing the rest of the query against
///               each probed suffix from min(LCP with the lower bound, LCP
///               with the upper bound): every suffix between two bounds
///               shares that prefix. A suffix whose next character sorts
///               below the query's, or that ends first (text end; a '#'
///               sorts below every base), lies left of the query. A probe
///               matching the whole query ends the search. Otherwise the
///               maximal length L is the larger LCP of the two rows around
///               the insertion point, and L == d leaves [lo, hi) whole.
///            2. Block search. The rows reaching L are contiguous (LCP
///               over a sorted block is unimodal), so from the row known
///               to reach L, each edge is found by galloping outward and
///               then bisecting against the nearest row known to fall
///               short. Each probe starts comparing past the prefix it
///               shares with that short row.
///            Each step first issues every searching lane's sa[mid] load
///            and prefetches the text it points at, then consumes them,
///            so lane A's DRAM miss hides behind lanes B..Z instead of
///            stalling the walk.
///   direct:  an interval of at most kT rows is read in one step (rows'
///            text positions, all prefetched); the next step compares
///            each row against the query (LCP, a word at a time) and the
///            contiguous block of maximal rows becomes the result.
///   deliver: the result goes to the feed and the lane is free again.
/// Every step runs each phase once over the lanes in it, then delivers the
/// finished lanes and refills them (and any lane left idle while the feed
/// was dry) at the top of the next step, so a lane never waits for slower
/// lanes to resolve. Results equal mmp()'s per-character narrowing: both
/// find the longest prefix any suffix of [lo, hi) shares with the query
/// and every row that shares it.
struct MmpBatchWalker {
  static constexpr u32 kT = 24;       ///< direct-scan row threshold
  static constexpr usize kLanes = 64; ///< in-flight queries

  /// Search phases: the insertion search, then the block's two edges.
  enum : u8 { kInsert, kLowEdge, kHighEdge };

  const std::string_view text;
  const std::span<const u32> sa;
  const std::span<const LutCell> lut;
  const u32 lut_k;
  const GenomeIndex& index;

  // Lane state (index = lane).
  const char* q[kLanes];
  u32 qlen[kLanes];
  u64 code[kLanes];  ///< leading k-mer code, ~0 when the main LUT can't jump
  u32 ilo[kLanes], ihi[kLanes], depth[kLanes];
  // Search state. Insertion: the insertion point lies in [a, b]; la / lb
  // are the query's LCPs with rows a-1 / b, or the jump depth while that
  // row lies outside [ilo, ihi). Edges: `inner` is the outermost row known
  // to reach `best` (= L) and `outer` the nearest row beyond it known to
  // fall short (ilo-1 / ihi until one is probed), with LCP `lout`; `step`
  // is the gallop stride, 0 once bisecting.
  u8 phase[kLanes];
  u32 a[kLanes], b[kLanes], la[kLanes], lb[kLanes];
  u32 best[kLanes], anchor[kLanes], inner[kLanes], lout[kLanes];
  i64 outer[kLanes];
  u64 step[kLanes];
  u32 mid[kLanes];   ///< row probed this step
  u32 skip[kLanes];  ///< query chars the probed suffix is known to match
  // Gathered text positions of a small interval's rows (row 0 doubles as
  // the search probe's position).
  u64 rpos[kLanes][kT];
  u32 rn[kLanes];
  u32 tag[kLanes];  ///< feed tag of the query the lane is resolving
  u64 rows_read = 0;  ///< SA rows read by probes and direct scans

  // Lane lists, one per phase.
  u8 free_lanes[kLanes];
  u8 claimed[kLanes];
  u8 search[kLanes];
  u8 started[kLanes];  ///< lanes that began searching this step
  u8 direct[kLanes];
  u8 gathered[kLanes];
  u8 done[kLanes];
  usize n_free = 0, n_claimed = 0, n_search = 0, n_started = 0, n_direct = 0,
        n_gathered = 0, n_done = 0;

  explicit MmpBatchWalker(const GenomeIndex& idx)
      : text(idx.text()),
        sa(idx.suffix_array()),
        lut(idx.prefix_lut()),
        lut_k(idx.prefix_lut_k()),
        index(idx) {}

  /// Text character at `pos`, -1 past the end.
  i32 text_char(u64 pos) const {
    if (pos >= text.size()) return -1;
    return static_cast<unsigned char>(text[pos]);
  }

  /// Claims the next query from the feed into lane `i` and starts its
  /// jump: the leading k-mer code, with its LUT cell prefetched.
  bool claim(GenomeIndex::MmpFeed& feed, usize i) {
    std::string_view query;
    u32 t = 0;
    if (!feed.next(query, t)) return false;
    q[i] = query.data();
    qlen[i] = static_cast<u32>(query.size());
    tag[i] = t;
    code[i] = ~u64{0};
    if (query.size() >= lut_k) {
      u64 c = 0;
      for (u32 j = 0; j < lut_k; ++j) {
        const u8 base = base_code(query[j]);
        if (base == 0xff) return true;
        c = (c << 2) | base;
      }
      code[i] = c;
      __builtin_prefetch(&lut[c]);
    }
    return true;
  }

  /// Reads lane `i`'s jump cell: the main LUT when its k-mer is present,
  /// else the mini-LUT cascade, exactly as mmp().
  void jump(usize i) {
    ilo[i] = 0;
    ihi[i] = static_cast<u32>(sa.size());
    depth[i] = 0;
    if (code[i] != ~u64{0}) {
      const LutCell& cell = lut[code[i]];
      if (cell[0] != cell[1]) {
        ilo[i] = cell[0];
        ihi[i] = cell[1];
        depth[i] = lut_k;
        return;
      }
    }
    if (qlen[i] == 0) return;
    u64 c = 0;
    u32 pure = 0;
    const u32 kmax = std::min<u32>(4, qlen[i]);
    for (u32 j = 0; j < kmax; ++j) {
      const u8 base = base_code(q[i][j]);
      if (base == 0xff) break;
      c = (c << 2) | base;
      ++pure;
    }
    for (u32 kk = pure; kk >= 1; --kk) {
      const LutCell& cell = index.mini_lut(kk)[c >> (2 * (pure - kk))];
      if (cell[0] != cell[1]) {
        ilo[i] = cell[0];
        ihi[i] = cell[1];
        depth[i] = kk;
        return;
      }
    }
  }

  /// Sets lane `i`'s next probe row, prefetching its SA entry.
  void probe(usize i, u32 row, u32 known) {
    mid[i] = row;
    skip[i] = known;
    __builtin_prefetch(&sa[row]);
  }

  /// Routes lane `i`, whose interval matches `depth` query chars, to its
  /// next phase: finished, direct scan (next step), or the search.
  void route(usize i) {
    if (depth[i] >= qlen[i]) {
      done[n_done++] = static_cast<u8>(i);
    } else if (ihi[i] - ilo[i] > kT) {
      phase[i] = kInsert;
      a[i] = ilo[i];
      b[i] = ihi[i];
      la[i] = lb[i] = depth[i];
      probe(i, a[i] + (b[i] - a[i]) / 2, depth[i]);
      started[n_started++] = static_cast<u8>(i);
    } else {
      direct[n_direct++] = static_cast<u8>(i);
    }
  }

  /// Starts the search for one block edge from row `in` (reaches best)
  /// toward `out` (falls short, LCP `lcp_out`). Returns false when the
  /// two are adjacent: `in` is the edge.
  bool start_edge(usize i, u32 in, i64 out, u32 lcp_out) {
    inner[i] = in;
    outer[i] = out;
    lout[i] = lcp_out;
    step[i] = 1;
    return next_edge_probe(i);
  }

  /// Picks lane `i`'s next edge probe: `step` rows beyond `inner` while
  /// galloping (never past `outer`), the midpoint once bisecting. Every
  /// row between the two shares `lout` characters with the query. Returns
  /// false when `inner` is the edge.
  bool next_edge_probe(usize i) {
    const i64 in = inner[i];
    const u64 dist = static_cast<u64>(outer[i] > in ? outer[i] - in
                                                    : in - outer[i]);
    if (dist <= 1) return false;
    const u64 off = step[i] ? std::min(step[i], dist - 1) : dist / 2;
    const i64 row = phase[i] == kLowEdge ? in - static_cast<i64>(off)
                                         : in + static_cast<i64>(off);
    probe(i, static_cast<u32>(row), lout[i]);
    return true;
  }

  /// The insertion search is over: finds the block's low edge, then its
  /// high edge. A bound row of the insertion search that reaches best is
  /// already inside the block; one that falls short bounds the gallop.
  /// Returns true while the lane has a probe pending.
  bool start_block(usize i) {
    phase[i] = kLowEdge;
    const bool low_pending =
        la[i] >= best[i]
            ? start_edge(i, a[i] - 1, static_cast<i64>(ilo[i]) - 1, depth[i])
            : start_edge(i, anchor[i], static_cast<i64>(a[i]) - 1, la[i]);
    return low_pending || finish_low_edge(i);
  }

  /// Records the low edge and starts the high one. Returns true while the
  /// lane has a probe pending.
  bool finish_low_edge(usize i) {
    ilo[i] = inner[i];
    phase[i] = kHighEdge;
    const bool high_pending =
        lb[i] >= best[i] ? start_edge(i, b[i], ihi[i], depth[i])
                         : start_edge(i, anchor[i], b[i], lb[i]);
    if (high_pending) return true;
    finish(i);
    return false;
  }

  /// The block [ilo, inner] reaches best: the lane's result.
  void finish(usize i) {
    ihi[i] = inner[i] + 1;
    depth[i] = best[i];
    done[n_done++] = static_cast<u8>(i);
  }

  /// Consumes lane `i`'s probe: the probed suffix at text position `pos`
  /// shares `l` characters with the query. Returns true while the lane
  /// keeps searching (its next probe set); otherwise it was routed to
  /// done.
  bool consume_probe(usize i, u64 pos, u32 l) {
    if (phase[i] != kInsert) {
      if (l >= best[i]) {
        inner[i] = mid[i];
        step[i] *= 2;
      } else {
        outer[i] = mid[i];
        lout[i] = l;
        step[i] = 0;
      }
      if (next_edge_probe(i)) return true;
      if (phase[i] == kLowEdge) return finish_low_edge(i);
      finish(i);
      return false;
    }
    if (l == qlen[i]) {  // the whole query matches: L is its length
      best[i] = l;
      anchor[i] = mid[i];
      return start_block(i);
    }
    if (text_char(pos + l) < static_cast<unsigned char>(q[i][l])) {
      a[i] = mid[i] + 1;
      la[i] = l;
    } else {
      b[i] = mid[i];
      lb[i] = l;
    }
    if (a[i] < b[i]) {
      probe(i, a[i] + (b[i] - a[i]) / 2, std::min(la[i], lb[i]));
      return true;
    }
    best[i] = std::max(la[i], lb[i]);
    if (best[i] == depth[i]) {  // no suffix extends the jump: keep [lo, hi)
      done[n_done++] = static_cast<u8>(i);
      return false;
    }
    anchor[i] = la[i] >= lb[i] ? a[i] - 1 : b[i];
    return start_block(i);
  }

  /// LCP of the query in lane `i` against the suffix at `pos`, starting
  /// from the `d` characters already known to match.
  u64 row_lcp(usize i, u64 pos, u64 d) const {
    return suffix_lcp(text, pos, std::string_view(q[i], qlen[i]), d);
  }

  /// Direct scan of a gathered lane: per-row LCP, then the maximal
  /// contiguous block becomes the result.
  void compare_rows(usize i) {
    u32 lens[kT];
    u32 max_len = depth[i];
    for (u32 r = 0; r < rn[i]; ++r) {
      lens[r] = static_cast<u32>(row_lcp(i, rpos[i][r], depth[i]));
      if (lens[r] > max_len) max_len = lens[r];
    }
    if (max_len > depth[i]) {
      u32 lo = 0;
      while (lens[lo] < max_len) ++lo;
      u32 hi = rn[i];
      while (lens[hi - 1] < max_len) --hi;
      ilo[i] += lo;
      ihi[i] = ilo[i] + (hi - lo);
      depth[i] = max_len;
    }
  }

  u64 run(GenomeIndex::MmpFeed& feed) {
    for (usize i = 0; i < kLanes; ++i) {
      free_lanes[i] = static_cast<u8>(kLanes - 1 - i);
    }
    n_free = kLanes;
    bool dry = false;  ///< feed had nothing pending at its last next()
    for (;;) {
      // Claim: fill free lanes until the feed runs dry. A dry feed is
      // asked again only after a delivery, which may have made new work.
      n_claimed = 0;
      while (!dry && n_free > 0) {
        const usize i = free_lanes[n_free - 1];
        if (!claim(feed, i)) {
          dry = true;
          break;
        }
        --n_free;
        claimed[n_claimed++] = static_cast<u8>(i);
      }
      if (n_free == kLanes) return rows_read;  // nothing in flight or pending

      // Search, issue half: every lane's SA probe, prefetching its text.
      for (usize k = 0; k < n_search; ++k) {
        const usize i = search[k];
        rpos[i][0] = sa[mid[i]];
        __builtin_prefetch(text.data() + rpos[i][0] + skip[i]);
      }
      rows_read += n_search;
      // Direct, gather half: read the rows, prefetch their text.
      n_gathered = n_direct;
      for (usize k = 0; k < n_direct; ++k) {
        const usize i = direct[k];
        gathered[k] = static_cast<u8>(i);
        rn[i] = ihi[i] - ilo[i];
        rows_read += rn[i];
        for (u32 r = 0; r < rn[i]; ++r) {
          rpos[i][r] = sa[ilo[i] + r];
          __builtin_prefetch(text.data() + rpos[i][r] + depth[i]);
        }
      }
      n_direct = 0;
      n_done = 0;
      n_started = 0;
      // Jump: the claimed lanes' LUT cells, prefetched at claim.
      for (usize k = 0; k < n_claimed; ++k) {
        const usize i = claimed[k];
        jump(i);
        route(i);
      }
      // Search, consume half.
      usize kept = 0;
      for (usize k = 0; k < n_search; ++k) {
        const usize i = search[k];
        const u64 pos = rpos[i][0];
        const u32 l = static_cast<u32>(row_lcp(i, pos, skip[i]));
        if (consume_probe(i, pos, l)) search[kept++] = static_cast<u8>(i);
      }
      for (usize k = 0; k < n_started; ++k) search[kept++] = started[k];
      n_search = kept;
      // Direct, compare half.
      for (usize k = 0; k < n_gathered; ++k) {
        const usize i = gathered[k];
        compare_rows(i);
        done[n_done++] = static_cast<u8>(i);
      }

      // Deliver every result first — each may hand the feed new work (a
      // walk's next restart) — then free the lanes for the next claim.
      for (usize k = 0; k < n_done; ++k) {
        const usize i = done[k];
        MmpResult out;
        out.length = depth[i];
        out.interval =
            depth[i] > 0 ? SaInterval{ilo[i], ihi[i]} : SaInterval{};
        feed.done(tag[i], out);
        free_lanes[n_free++] = static_cast<u8>(i);
      }
      if (n_done > 0) dry = false;
    }
  }
};

/// Adapts the span-based mmp_batch onto the streaming walker.
class SpanFeed final : public GenomeIndex::MmpFeed {
 public:
  SpanFeed(std::span<const std::string_view> queries,
           std::span<MmpResult> results)
      : queries_(queries), results_(results) {}

  bool next(std::string_view& query, u32& tag) override {
    if (next_ >= queries_.size()) return false;
    query = queries_[next_];
    tag = static_cast<u32>(next_);
    ++next_;
    return true;
  }

  void done(u32 tag, const MmpResult& result) override {
    results_[tag] = result;
  }

 private:
  std::span<const std::string_view> queries_;
  std::span<MmpResult> results_;
  usize next_ = 0;
};

}  // namespace

u64 GenomeIndex::mmp_batch_stream(MmpFeed& feed) const {
  MmpBatchWalker walker(*this);
  return walker.run(feed);
}

void GenomeIndex::mmp_batch(std::span<const std::string_view> queries,
                            std::span<MmpResult> results) const {
  STARATLAS_CHECK(queries.size() == results.size());
  if (queries.empty()) return;
  SpanFeed feed(queries, results);
  MmpBatchWalker walker(*this);
  walker.run(feed);
}

IndexStats GenomeIndex::stats() const {
  IndexStats stats;
  stats.text_bytes = ByteSize(storage_.text().size());
  stats.suffix_array_bytes = ByteSize(storage_.sa().size() * sizeof(u32));
  stats.lut_bytes = ByteSize(storage_.lut().size() * sizeof(LutCell));
  u64 mini_bytes = 0;
  for (u32 k = 1; k <= 4; ++k) {
    mini_bytes += storage_.mini(k).size() * sizeof(LutCell);
  }
  stats.mini_lut_bytes = ByteSize(mini_bytes);
  stats.genome_length = storage_.text().size() - (contigs_.size() - 1);
  stats.num_contigs = contigs_.size();
  stats.prefix_lut_k = lut_k_;
  return stats;
}

std::string GenomeIndex::text_substr(u64 pos, u64 len) const {
  STARATLAS_CHECK(pos <= storage_.text().size());
  return std::string(storage_.text().substr(pos, len));
}

u64 GenomeIndex::fingerprint() const {
  // FNV-1a over the identity-bearing metadata plus sampled text bytes.
  // O(contigs): cheap enough to compute on demand wherever two collectors
  // from different processes (or different load paths) must prove they
  // were built against the same genome before merging.
  u64 h = 14695981039346656037ull;
  const auto mix_byte = [&h](u8 byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  const auto mix_u64 = [&](u64 v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<u8>(v >> (8 * i)));
  };
  const auto mix_str = [&](std::string_view s) {
    mix_u64(s.size());
    for (char c : s) mix_byte(static_cast<u8>(c));
  };
  mix_str(species_);
  mix_u64(static_cast<u64>(release_));
  mix_byte(static_cast<u8>(type_));
  mix_u64(lut_k_);
  const std::string_view text = storage_.text();
  mix_u64(text.size());
  mix_u64(contigs_.size());
  for (const ContigMeta& contig : contigs_) {
    mix_str(contig.name);
    mix_byte(static_cast<u8>(contig.cls));
    mix_u64(contig.text_offset);
    mix_u64(contig.length);
  }
  // Sampled content guards against same-shaped but different genomes.
  const usize sample = std::min<usize>(text.size(), 64);
  mix_str(text.substr(0, sample));
  mix_str(text.substr(text.size() - sample));
  return h;
}

// ---------------------------------------------------------------------------
// Serialization.


std::string GenomeIndex::serialize_meta() const {
  std::ostringstream buf(std::ios::out | std::ios::binary);
  BinaryWriter writer(buf);
  writer.write_string(species_);
  writer.write_u32(static_cast<u32>(release_));
  writer.write_u8(type_ == AssemblyType::kToplevel ? 0 : 1);
  writer.write_u32(lut_k_);
  writer.write_u64(storage_.text().size());
  writer.write_u64(storage_.sa().size());
  writer.write_u64(storage_.lut().size());
  writer.write_u64(contigs_.size());
  for (const auto& meta : contigs_) {
    writer.write_string(meta.name);
    writer.write_u8(static_cast<u8>(meta.cls));
    writer.write_u64(meta.text_offset);
    writer.write_u64(meta.length);
  }
  return buf.str();
}

void GenomeIndex::parse_meta(const std::string& blob, u64& text_size,
                             u64& sa_size, u64& lut_cells) {
  std::istringstream in(blob, std::ios::in | std::ios::binary);
  BinaryReader reader(in);
  species_ = reader.read_string();
  release_ = static_cast<int>(reader.read_u32());
  type_ = reader.read_u8() == 0 ? AssemblyType::kToplevel
                                : AssemblyType::kPrimaryAssembly;
  lut_k_ = reader.read_u32();
  text_size = reader.read_u64();
  sa_size = reader.read_u64();
  lut_cells = reader.read_u64();
  const u64 num_contigs = reader.read_u64();
  if (num_contigs > text_size + 1) corrupt("contig count exceeds text");
  contigs_.clear();
  // A corrupt count larger than the blob can back runs out of bytes in
  // the read loop below (IoError -> ParseError); don't let it drive a
  // giant up-front allocation.
  contigs_.reserve(std::min<u64>(num_contigs, 1 << 20));
  for (u64 i = 0; i < num_contigs; ++i) {
    ContigMeta meta;
    meta.name = reader.read_string();
    meta.cls = static_cast<ContigClass>(reader.read_u8());
    meta.text_offset = reader.read_u64();
    meta.length = reader.read_u64();
    contigs_.push_back(std::move(meta));
  }
}

void GenomeIndex::save(std::ostream& out, u32 version) const {
  if (version != kVersionV3) {
    throw InvalidArgument("unsupported index save version " +
                          std::to_string(version));
  }
  const std::string meta = serialize_meta();
  const std::string_view text = storage_.text();
  const std::span<const u32> sa = storage_.sa();
  const std::span<const LutCell> lut = storage_.lut();

  struct Payload {
    u32 id;
    const void* data;
    u64 length;
  };
  Payload payloads[] = {
      {kSecMeta, meta.data(), meta.size()},
      {kSecText, text.data(), text.size()},
      {kSecSa, sa.data(), sa.size() * sizeof(u32)},
      {kSecLut, lut.data(), lut.size() * sizeof(LutCell)},
      {kSecMini1 + 0, storage_.mini(1).data(),
       storage_.mini(1).size() * sizeof(LutCell)},
      {kSecMini1 + 1, storage_.mini(2).data(),
       storage_.mini(2).size() * sizeof(LutCell)},
      {kSecMini1 + 2, storage_.mini(3).data(),
       storage_.mini(3).size() * sizeof(LutCell)},
      {kSecMini1 + 3, storage_.mini(4).data(),
       storage_.mini(4).size() * sizeof(LutCell)},
  };

  BinaryWriter writer(out);
  writer.write_u32(kIndexMagic);
  writer.write_u32(version);
  writer.write_u64(kNumSections);
  u64 offset = kSectionAlign;  // header page
  for (Payload& p : payloads) {
    if (p.length == 0) p.data = "";  // keep fnv/write off null pointers
    writer.write_u32(p.id);
    writer.write_u32(0);  // reserved
    writer.write_u64(offset);
    writer.write_u64(p.length);
    writer.write_u64(fnv1a64(p.data, p.length));
    offset = align_up(offset + p.length, kSectionAlign);
  }
  for (const Payload& p : payloads) {
    writer.pad_to(kSectionAlign);
    writer.write_blob(p.data, p.length);
  }
}

GenomeIndex GenomeIndex::load(std::istream& in) {
  try {
    BinaryReader reader(in);
    if (reader.read_u32() != kIndexMagic) {
      throw ParseError("not a staratlas genome index (bad magic)");
    }
    const u32 version = reader.read_u32();
    if (version != kVersionV3) {
      throw ParseError("unsupported index version " + std::to_string(version));
    }
    return load_sectioned_stream(reader);
  } catch (const IoError& e) {
    // A corrupt length prefix or truncated file surfaces as a short read
    // deep in the reader; fold it into the one corruption exception type
    // callers are promised.
    throw ParseError(std::string("index truncated or unreadable: ") +
                     e.what());
  }
}

GenomeIndex GenomeIndex::load_sectioned_stream(BinaryReader& reader) {
  const u64 count = reader.read_u64();
  if (count != kNumSections) corrupt("bad section count");
  std::vector<SectionInfo> sections(kNumSections);
  u64 prev_end = 0;
  for (usize i = 0; i < kNumSections; ++i) {
    SectionInfo& s = sections[i];
    s.id = reader.read_u32();
    reader.read_u32();  // reserved
    s.offset = reader.read_u64();
    s.length = reader.read_u64();
    s.checksum = reader.read_u64();
    if (s.id != i + 1) corrupt("unexpected section order");
    if (s.offset % kSectionAlign != 0 || s.offset < kSectionAlign) {
      corrupt("misaligned section offset");
    }
    if (s.offset < prev_end) corrupt("overlapping sections");
    if (s.length > (1ULL << 40)) corrupt("section length implausibly large");
    prev_end = s.offset + s.length;
  }

  GenomeIndex index;
  u64 text_size = 0;
  u64 sa_size = 0;
  u64 lut_cells = 0;
  std::string meta_blob;
  for (usize i = 0; i < kNumSections; ++i) {
    const SectionInfo& s = sections[i];
    STARATLAS_CHECK(s.offset >= reader.bytes_read());
    reader.skip(s.offset - reader.bytes_read());
    u64 checksum = 0;
    switch (s.id) {
      case kSecMeta: {
        meta_blob.resize(s.length);
        reader.read_blob(meta_blob.data(), s.length);
        checksum = fnv1a64(meta_blob.data(), s.length);
        // Verify before parsing: every later section trusts the sizes the
        // meta block declares.
        if (checksum != s.checksum) corrupt("checksum mismatch in section 1");
        index.parse_meta(meta_blob, text_size, sa_size, lut_cells);
        break;
      }
      case kSecText: {
        if (s.length != text_size) corrupt("text section size mismatch");
        index.storage_.text_owned.resize(s.length);
        reader.read_blob(index.storage_.text_owned.data(), s.length);
        checksum = fnv1a64(index.storage_.text_owned.data(), s.length);
        break;
      }
      case kSecSa: {
        if (s.length != sa_size * sizeof(u32)) {
          corrupt("SA section size mismatch");
        }
        index.storage_.sa_owned.resize(sa_size);
        reader.read_blob(index.storage_.sa_owned.data(), s.length);
        checksum = fnv1a64(index.storage_.sa_owned.data(), s.length);
        break;
      }
      case kSecLut: {
        if (s.length != lut_cells * sizeof(LutCell)) {
          corrupt("LUT section size mismatch");
        }
        index.storage_.lut_owned.resize(lut_cells);
        checksum = 0;
        reader.read_blob(index.storage_.lut_owned.data(), s.length);
        checksum = fnv1a64(index.storage_.lut_owned.data(), s.length);
        break;
      }
      default: {
        const u32 k = s.id - kSecMini1 + 1;
        const u64 cells = u64{1} << (2 * k);
        if (s.length != cells * sizeof(LutCell)) {
          corrupt("mini-LUT section size mismatch");
        }
        auto& mini = index.storage_.mini_owned[k - 1];
        mini.resize(cells);
        reader.read_blob(mini.data(), s.length);
        checksum = fnv1a64(mini.data(), s.length);
        break;
      }
    }
    if (checksum != s.checksum) {
      corrupt("checksum mismatch in section " + std::to_string(s.id));
    }
  }
  index.validate_loaded(/*deep=*/true);
  return index;
}

GenomeIndex GenomeIndex::load_sectioned_mmap(MappedFile file,
                                             const std::string& path) {
  const u8* base = file.data();
  const usize file_size = file.size();
  const auto read_at = [&](u64 offset, auto& out) {
    if (offset + sizeof(out) > file_size) corrupt("header past end of file");
    std::memcpy(&out, base + offset, sizeof(out));
  };
  u32 magic = 0;
  u32 version = 0;
  read_at(0, magic);
  read_at(4, version);
  if (magic != kIndexMagic) {
    throw ParseError("not a staratlas genome index (bad magic): " + path);
  }
  if (version != kVersionV3) {
    throw ParseError("unsupported index version " + std::to_string(version));
  }
  u64 count = 0;
  read_at(8, count);
  if (count != kNumSections) corrupt("bad section count");

  GenomeIndex index;
  index.sections_.resize(kNumSections);
  u64 prev_end = 0;
  for (usize i = 0; i < kNumSections; ++i) {
    SectionInfo& s = index.sections_[i];
    const u64 entry = 16 + i * kSectionEntryBytes;
    read_at(entry, s.id);
    read_at(entry + 8, s.offset);
    read_at(entry + 16, s.length);
    read_at(entry + 24, s.checksum);
    if (s.id != i + 1) corrupt("unexpected section order");
    if (s.offset % kSectionAlign != 0 || s.offset < kSectionAlign) {
      corrupt("misaligned section offset");
    }
    if (s.offset < prev_end) corrupt("overlapping sections");
    if (s.length > file_size || s.offset > file_size - s.length) {
      corrupt("section past end of file");
    }
    prev_end = s.offset + s.length;
  }

  // The meta section is tiny; copy and parse it. Everything else becomes
  // a borrowed view — no bytes move, the kernel pages them in on demand.
  const SectionInfo& meta = index.sections_[0];
  const std::string meta_blob(reinterpret_cast<const char*>(base + meta.offset),
                              meta.length);
  if (fnv1a64(meta_blob.data(), meta_blob.size()) != meta.checksum) {
    corrupt("checksum mismatch in section 1");
  }
  u64 text_size = 0;
  u64 sa_size = 0;
  u64 lut_cells = 0;
  index.parse_meta(meta_blob, text_size, sa_size, lut_cells);

  const SectionInfo& text = index.sections_[1];
  const SectionInfo& sa = index.sections_[2];
  const SectionInfo& lut = index.sections_[3];
  if (text.length != text_size) corrupt("text section size mismatch");
  if (sa.length != sa_size * sizeof(u32)) corrupt("SA section size mismatch");
  if (lut.length != lut_cells * sizeof(LutCell)) {
    corrupt("LUT section size mismatch");
  }
  index.storage_.file = std::move(file);
  const u8* data = index.storage_.file.data();
  index.storage_.mapped = true;
  index.storage_.text_view = std::string_view(
      reinterpret_cast<const char*>(data + text.offset), text.length);
  index.storage_.sa_view = std::span<const u32>(
      reinterpret_cast<const u32*>(data + sa.offset), sa_size);
  index.storage_.lut_view = std::span<const LutCell>(
      reinterpret_cast<const LutCell*>(data + lut.offset), lut_cells);
  for (u32 k = 1; k <= 4; ++k) {
    const SectionInfo& mini = index.sections_[3 + k];
    const u64 cells = u64{1} << (2 * k);
    if (mini.length != cells * sizeof(LutCell)) {
      corrupt("mini-LUT section size mismatch");
    }
    index.storage_.mini_view[k - 1] = std::span<const LutCell>(
        reinterpret_cast<const LutCell*>(data + mini.offset), cells);
  }
  // Structural checks only: a deep scan would fault in every page,
  // defeating the O(header) attach. verify_checksums() is the on-demand
  // integrity pass.
  index.validate_loaded(/*deep=*/false);
  return index;
}

void GenomeIndex::validate_loaded(bool deep) const {
  const u64 tsize = storage_.text().size();
  const std::span<const u32> sa = storage_.sa();
  const std::span<const LutCell> lut = storage_.lut();
  if (lut_k_ < 2 || lut_k_ > 14) corrupt("LUT k out of range");
  if (sa.size() != tsize) corrupt("SA/text size mismatch");
  if (lut.size() != (u64{1} << (2 * lut_k_))) corrupt("LUT size mismatch");
  if (contigs_.empty()) corrupt("no contigs");
  // Contig metadata must tile the text exactly: offsets form a dense
  // chain with one separator byte between contigs and no overhang. A
  // corrupt offset/length would otherwise pass load and fail deep inside
  // locate() during alignment.
  u64 expect = 0;
  for (usize i = 0; i < contigs_.size(); ++i) {
    const ContigMeta& meta = contigs_[i];
    if (meta.text_offset != expect) corrupt("contig offsets not contiguous");
    if (meta.length > tsize - meta.text_offset) {
      corrupt("contig extends past text");
    }
    expect = meta.text_offset + meta.length + 1;
  }
  if (expect != tsize + 1) corrupt("contig chain does not cover text");
  if (deep) {
    const u64 n = tsize;
    for (const u32 pos : sa) {
      if (pos >= n) corrupt("SA entry out of range");
    }
    const auto check_cells = [n](std::span<const LutCell> cells) {
      for (const LutCell& cell : cells) {
        if (cell[0] > cell[1] || cell[1] > n) corrupt("LUT cell out of range");
      }
    };
    check_cells(lut);
    for (u32 k = 1; k <= 4; ++k) {
      if (!storage_.mini(k).empty()) check_cells(storage_.mini(k));
    }
  }
}

void GenomeIndex::verify_checksums() const {
  if (!storage_.mapped) return;
  const u8* base = storage_.file.data();
  for (const SectionInfo& s : sections_) {
    if (fnv1a64(base + s.offset, s.length) != s.checksum) {
      corrupt("checksum mismatch in section " + std::to_string(s.id));
    }
  }
}

void GenomeIndex::save_file(const std::string& path, u32 version) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open index file for writing: " + path);
  save(out, version);
  if (!out) throw IoError("failed writing index file: " + path);
}

GenomeIndex GenomeIndex::load_file(const std::string& path,
                                   IndexLoadMode mode) {
  if (mode == IndexLoadMode::kAuto) {
    mode = MappedFile::supported() ? IndexLoadMode::kMmap
                                   : IndexLoadMode::kStream;
  }
  if (mode == IndexLoadMode::kMmap) {
    return load_sectioned_mmap(MappedFile::map(path), path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open index file: " + path);
  return load(in);
}

}  // namespace staratlas
