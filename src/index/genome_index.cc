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

// v3/v4 section ids, in file order. v4 appends the packed-text sections
// and writes the raw text section with length 0 (the packed form *is*
// the text), which is what makes a v4 file both smaller on disk and
// smaller resident after an mmap attach.
enum SectionId : u32 {
  kSecMeta = 1,
  kSecText = 2,
  kSecSa = 3,
  kSecLut = 4,
  kSecMini1 = 5,  // 5..8 = cascade LUTs k=1..4
  kSecPackedCodes = 9,
  kSecPackedSlots = 10,
  kSecPackedExc = 11,
};
constexpr usize kNumSectionsV3 = 8;
constexpr usize kNumSectionsV4 = 11;
// Header: magic u32, version u32, count u64, then per section
// {id u32, reserved u32, offset u64, length u64, checksum u64}.
constexpr u64 kSectionEntryBytes = 32;

usize sections_for_version(u32 version) {
  return version == GenomeIndex::kVersionV4 ? kNumSectionsV4 : kNumSectionsV3;
}

// Expected serialized lengths of the packed-text sections for a genome of
// `text_size` bases (guard words/slots included — mmap views borrow them
// straight from the file).
u64 packed_codes_bytes(u64 text_size) {
  return packed_code_words(text_size) * sizeof(u64);
}
u64 packed_slots_bytes(u64 text_size) {
  return (packed_pages(text_size) + 1) * sizeof(u32);
}

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

// Slot-table integrity shared by the v4 load paths: every referenced
// block must exist and the guard slot must be clean, or exc_word() would
// read out of bounds on a corrupt file. O(pages) = ~1/1000 of the text,
// cheap enough even for the O(header) mmap attach.
void validate_packed_slots(std::span<const u32> slots, u64 pages,
                           u64 num_blocks) {
  if (slots.size() != pages + 1) corrupt("packed slot table size mismatch");
  for (u64 p = 0; p < slots.size(); ++p) {
    const u32 slot = slots[p];
    if (slot == kPackedNoExc) continue;
    if (p == pages || slot >= num_blocks) {
      corrupt("packed slot out of range");
    }
  }
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
  STARATLAS_CHECK(text_pos < storage_.text_size());
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

namespace {

/// Byte-order rank of a packed (code, exception) pair: '#' < 'A' < 'C' <
/// 'G' < 'N' < 'T' — the order raw-text suffix comparison sees, so block
/// compares over packed text narrow exactly like byte compares.
inline u32 packed_char_rank(u32 code, u32 exc) {
  static constexpr u32 kBase[4] = {1, 2, 3, 5};  // A C G T
  return exc ? (code == 0 ? 4 : 0) : kBase[code];  // N / '#'
}

/// Compresses a XOR of two 2-bit code words to a per-base mismatch mask
/// (bit i set iff base i's codes differ) — packed_mismatch_mask32's fold.
inline u32 fold_code_mismatch32(u64 x) {
  u64 m = (x | (x >> 1)) & 0x5555555555555555ULL;
  m = (m | (m >> 1)) & 0x3333333333333333ULL;
  m = (m | (m >> 2)) & 0x0F0F0F0F0F0F0F0FULL;
  m = (m | (m >> 4)) & 0x00FF00FF00FF00FFULL;
  m = (m | (m >> 8)) & 0x0000FFFF0000FFFFULL;
  m = (m | (m >> 16)) & 0x00000000FFFFFFFFULL;
  return static_cast<u32>(m);
}

/// Three-way byte-order compare of text block [pos, pos+len) against
/// packed query bases [qpos, qpos+len), len <= 32, in one code-word +
/// overlay extraction per side. A block truncated by the text end sorts
/// first (the char_at == -1 convention of extend_interval). Guard words
/// make the end-of-array extractions safe; bases past min(len, text end)
/// are masked out of the decision.
inline int packed_block_compare(const PackedTextView& ptext, u64 tsize,
                                u64 pos, const u64* qcodes, const u64* qexc,
                                u64 qpos, u32 len) {
  if (pos >= tsize) return -1;
  const u32 n = static_cast<u32>(std::min<u64>(len, tsize - pos));
  const u64 tc = ptext.extract_codes(pos);
  const u32 te = ptext.extract_exc(pos);
  const u64 qc = packed_extract_codes(qcodes, qpos);
  const u32 qe = packed_extract_bits32(qexc, qpos);
  const u32 mismatch = fold_code_mismatch32(tc ^ qc) | (te ^ qe);
  const u32 first =
      mismatch == 0 ? 32 : static_cast<u32>(std::countr_zero(mismatch));
  if (first >= n) return n == len ? 0 : -1;
  const u32 trank = packed_char_rank((tc >> (2 * first)) & 3u,
                                     (te >> first) & 1u);
  const u32 qrank = packed_char_rank((qc >> (2 * first)) & 3u,
                                     (qe >> first) & 1u);
  return trank < qrank ? -1 : 1;
}

}  // namespace

SaInterval GenomeIndex::extend_interval_packed_block(SaInterval interval,
                                                     usize depth,
                                                     const u64* qcodes,
                                                     const u64* qexc,
                                                     u32 len) const {
  STARATLAS_CHECK(storage_.has_packed());
  STARATLAS_CHECK(len >= 1 && len <= kPackedBasesPerWord);
  if (interval.empty()) return interval;
  const std::span<const u32> sa = storage_.sa();
  const u64 tsize = storage_.text_size();
  const PackedTextView ptext = storage_.packed_view();
  const auto compare = [&](u32 row) {
    return packed_block_compare(ptext, tsize,
                                static_cast<u64>(sa[row]) + depth, qcodes,
                                qexc, depth, len);
  };
  u32 a = interval.lo;
  u32 b = interval.hi;
  while (a < b) {
    const u32 mid = a + (b - a) / 2;
    if (compare(mid) < 0) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  const u32 lo = a;
  b = interval.hi;
  while (a < b) {
    const u32 mid = a + (b - a) / 2;
    if (compare(mid) <= 0) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  return {lo, a};
}

SaInterval GenomeIndex::extend_interval(SaInterval interval, usize depth,
                                        char c) const {
  if (interval.empty()) return interval;
  const std::string_view text = storage_.text();
  const std::span<const u32> sa = storage_.sa();
  const u64 tsize = storage_.text_size();
  const bool packed = storage_.has_packed();
  const PackedTextView ptext = storage_.packed_view();
  // Among suffixes in [lo, hi) — all sharing the same `depth`-char prefix —
  // find the subrange whose next character is `c`. Suffixes shorter than
  // depth+1 sort first within the range. Packed decode preserves byte
  // order ('#' < ACGT < beyond), so the narrowing is encoding-independent.
  const auto char_at = [&](u32 row) -> int {
    const u64 pos = static_cast<u64>(sa[row]) + depth;
    if (pos >= tsize) return -1;
    return static_cast<unsigned char>(packed ? ptext.at(pos) : text[pos]);
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
  const std::string_view text = storage_.text();
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

  if (storage_.has_packed()) {
    // Packed text: same walk, but the single-candidate scan runs the
    // wide-word packed LCP kernel (32/64/128 bases per compare) instead
    // of byte words. Queries that exceed the stack packing budget or
    // contain non-ACGTN characters take the per-base decode fallback,
    // which preserves exact byte semantics for arbitrary input.
    const PackedTextView ptext = storage_.packed_view();
    constexpr usize kMaxPacked = 512;
    u64 qc[kMaxPacked / 32 + 1];
    u64 qe[kMaxPacked / 64 + 1];
    const bool packable =
        query.size() <= kMaxPacked && pack_query(query, qc, qe);
    while (depth < query.size()) {
      if (interval.count() == 1) {
        const u64 pos = sa[interval.lo];
        const u64 limit = std::min<u64>(query.size(), ptext.size - pos);
        if (packable) {
          depth = packed_lcp(ptext, pos, qc, qe, depth, limit);
        } else {
          while (depth < limit && ptext.at(pos + depth) == query[depth]) {
            ++depth;
          }
        }
        break;
      }
      if (packable) {
        // Wide-block narrowing: consume up to 32 characters per
        // equal-range pass, one code-word extraction per probe instead of
        // one decoded base. An empty block range means the walk ends
        // strictly inside the block — the per-char fallback below finds
        // the exact end (or pins a single candidate for the scan above),
        // so results are bit-identical to the per-char walk.
        const u32 len = static_cast<u32>(
            std::min<u64>(kPackedBasesPerWord, query.size() - depth));
        if (len > 1) {
          const SaInterval block =
              extend_interval_packed_block(interval, depth, qc, qe, len);
          if (!block.empty()) {
            interval = block;
            depth += len;
            continue;
          }
          while (interval.count() > 1 && depth < query.size()) {
            const SaInterval narrowed =
                extend_interval(interval, depth, query[depth]);
            if (narrowed.empty()) {
              result.length = depth;
              result.interval = depth > 0 ? interval : SaInterval{};
              return;
            }
            interval = narrowed;
            ++depth;
          }
          continue;
        }
      }
      const SaInterval narrowed =
          extend_interval(interval, depth, query[depth]);
      if (narrowed.empty()) break;
      interval = narrowed;
      ++depth;
    }
    result.length = depth;
    result.interval = depth > 0 ? interval : SaInterval{};
    return;
  }

  while (depth < query.size()) {
    if (interval.count() == 1) {
      // Single candidate suffix: extending by binary search would just
      // re-confirm this row, so compare against the text directly. This
      // is the common case for unique reads once the LUT (or a few
      // narrowing steps) pins the interval, and it turns O(log n) SA
      // probes per character into one text byte. Compare a word at a
      // time: the matched stretch is most of the read for unique reads.
      const u64 pos = sa[interval.lo];
      const u64 limit = std::min<u64>(query.size(), text.size() - pos);
      const char* t = text.data() + pos;
      const char* q = query.data();
      while (depth + sizeof(u64) <= limit) {
        u64 tw;
        u64 qw;
        std::memcpy(&tw, t + depth, sizeof(u64));
        std::memcpy(&qw, q + depth, sizeof(u64));
        if (tw != qw) {
          // First differing byte within the word (little-endian).
          depth += static_cast<u64>(std::countr_zero(tw ^ qw)) / 8;
          result.length = depth;
          result.interval = depth > 0 ? interval : SaInterval{};
          return;
        }
        depth += sizeof(u64);
      }
      while (depth < limit && t[depth] == q[depth]) ++depth;
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
///            exactly as mmp()), leaving the lane narrowing, direct or
///            finished.
///   narrow:  a wide interval is binary-searched by the next query block
///            (the lower-then-upper bound passes of extend_interval), one
///            probe per step. Each step first issues every narrowing
///            lane's sa[mid] load and prefetches the text it points at,
///            then consumes them, so lane A's DRAM miss hides behind lanes
///            B..Z instead of stalling the walk.
///   direct:  once the interval fits kT rows, one step reads the rows'
///            text positions and prefetches them all; the next compares
///            each row against the query (LCP, a word at a time). The
///            maximal rows form a contiguous block (LCP over a sorted
///            suffix block is unimodal), which becomes the result interval.
///   deliver: the result goes to the feed and the lane is free again.
/// Every step runs each phase once over the lanes in it, then delivers the
/// finished lanes and refills them (and any lane left idle while the feed
/// was dry) at the top of the next step, so a lane never waits for slower
/// lanes to resolve.
///
/// Narrow blocks (packed text only; raw text narrows per character). A
/// lane narrows one query character per equal-range pass until a pass
/// past the main LUT depth leaves its interval whole: every suffix agrees
/// on the next character, the mark of repeat copies. From then on it
/// consumes up to kPackedBasesPerWord characters per pass, one code-word
/// extraction per probe. An empty block range means the walk ends
/// strictly inside the block; the lane then finishes per character, which
/// locates the exact end. Blocks from the start cost more than they save:
/// most intervals shrink below kT within a character or two of the LUT
/// jump, and a block the walk ends inside wastes a whole equal-range
/// search.
struct MmpBatchWalker {
  static constexpr u32 kT = 24;       ///< direct-scan row threshold
  static constexpr usize kLanes = 64; ///< in-flight queries
  /// Stack budget for per-lane packed queries; longer (or non-ACGTN)
  /// queries fall back to the per-base decode compare.
  static constexpr usize kMaxPackedQuery = 512;
  static constexpr usize kQWords = kMaxPackedQuery / 32 + 1;
  static constexpr usize kEWords = kMaxPackedQuery / 64 + 1;

  const std::string_view text;
  const std::span<const u32> sa;
  const std::span<const LutCell> lut;
  const u32 lut_k;
  const GenomeIndex& index;
  /// Inactive (null codes) for raw-text indexes; when active, `text` is
  /// empty and every text access below goes through the packed view.
  const PackedTextView ptext;
  const u64 tsize;

  // Lane state (index = lane).
  const char* q[kLanes];
  u32 qlen[kLanes];
  // Per-lane packed query (filled at claim when the text is packed, so
  // the packing cost amortizes over the lane's whole walk).
  u64 qcodes[kLanes][kQWords];
  u64 qexc[kLanes][kEWords];
  bool qpacked[kLanes];
  u64 code[kLanes];  ///< leading k-mer code, ~0 when the main LUT can't jump
  u32 ilo[kLanes], ihi[kLanes], depth[kLanes];
  // Narrow state: current bounds [a, b), probe row, lower-bound result,
  // and whether we are in the lower (0) or upper (1) bound pass.
  u32 a[kLanes], b[kLanes], mid[kLanes], nlo[kLanes];
  u8 nmode[kLanes];
  i32 target[kLanes];
  // Characters consumed per equal-range pass; 1 = per-char probes.
  u32 blen[kLanes];
  // Set once a per-char pass past the main LUT depth left the lane's
  // interval whole: its suffixes agree on the next character (repeat
  // copies), so wide blocks now pay.
  bool stalled[kLanes];
  // Set once a lane's block found no matching suffix: the walk ends within
  // that block, so the lane finishes it per-char (retrying wider blocks
  // would re-fail and waste probes).
  bool single[kLanes];
  // Gathered text positions of a small interval's rows (row 0 doubles as
  // the narrow probe's position).
  u64 rpos[kLanes][kT];
  u32 rn[kLanes];
  u32 tag[kLanes];  ///< feed tag of the query the lane is resolving

  // Lane lists, one per phase.
  u8 free_lanes[kLanes];
  u8 claimed[kLanes];
  u8 narrow[kLanes];
  u8 started[kLanes];  ///< lanes that began narrowing this step
  u8 direct[kLanes];
  u8 gathered[kLanes];
  u8 done[kLanes];
  usize n_free = 0, n_claimed = 0, n_narrow = 0, n_started = 0, n_direct = 0,
        n_gathered = 0, n_done = 0;

  explicit MmpBatchWalker(const GenomeIndex& idx)
      : text(idx.text()),
        sa(idx.suffix_array()),
        lut(idx.prefix_lut()),
        lut_k(idx.prefix_lut_k()),
        index(idx),
        ptext(idx.packed_view()),
        tsize(idx.text_size()) {}

  /// Text character for the narrow probes: raw byte or packed decode.
  i32 probe_char(u64 pos) const {
    if (pos >= tsize) return -1;
    return static_cast<unsigned char>(ptext.active() ? ptext.at(pos)
                                                     : text[pos]);
  }

  /// Prefetch of the text backing position `pos` (the code word when
  /// packed — the overlay's slot table is tiny and stays cache-resident).
  void prefetch_text(u64 pos) const {
    if (ptext.active()) {
      __builtin_prefetch(&ptext.codes[pos >> 5]);
    } else {
      __builtin_prefetch(text.data() + pos);
    }
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
    stalled[i] = false;
    single[i] = false;
    if (ptext.active()) {
      qpacked[i] = query.size() <= kMaxPackedQuery &&
                   pack_query(query, qcodes[i], qexc[i]);
    }
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

  /// Starts narrowing lane `i` by its next block at the current depth,
  /// prefetching the first probe's SA row.
  void start_block(usize i) {
    const bool wide =
        stalled[i] && !single[i] && ptext.active() && qpacked[i];
    blen[i] = wide ? std::min<u32>(static_cast<u32>(kPackedBasesPerWord),
                                   qlen[i] - depth[i])
                   : 1;
    target[i] = static_cast<unsigned char>(q[i][depth[i]]);
    a[i] = ilo[i];
    b[i] = ihi[i];
    nmode[i] = 0;
    mid[i] = a[i] + (b[i] - a[i]) / 2;
    __builtin_prefetch(&sa[mid[i]]);
  }

  /// Routes lane `i`, whose interval matches `depth` query chars, to its
  /// next phase: finished, direct scan (next step), or a new block.
  void route(usize i) {
    if (depth[i] >= qlen[i]) {
      done[n_done++] = static_cast<u8>(i);
    } else if (ihi[i] - ilo[i] > kT) {
      start_block(i);
      started[n_started++] = static_cast<u8>(i);
    } else {
      direct[n_direct++] = static_cast<u8>(i);
    }
  }

  /// Consumes lane `i`'s probe result. Returns true while the lane keeps
  /// narrowing the same block; otherwise the lane was routed onward.
  bool consume_probe(usize i, bool go_right) {
    if (go_right) {
      a[i] = mid[i] + 1;
    } else {
      b[i] = mid[i];
    }
    if (a[i] >= b[i] && nmode[i] == 0) {
      // Lower bound done; run the upper bound over [lower, ihi).
      nlo[i] = a[i];
      b[i] = ihi[i];
      nmode[i] = 1;
    }
    if (a[i] < b[i]) {
      mid[i] = a[i] + (b[i] - a[i]) / 2;
      __builtin_prefetch(&sa[mid[i]]);
      return true;
    }
    // Both bounds done: the narrowed interval is [nlo, a).
    if (nlo[i] == a[i]) {
      if (blen[i] > 1) {
        // No suffix matches the whole block: the walk terminates within
        // it. Re-narrow the same depth one character at a time to find
        // exactly where (bit-identical to a per-char walk).
        single[i] = true;
        start_block(i);
        return true;
      }
      done[n_done++] = static_cast<u8>(i);  // next char absent: finish
      return false;
    }
    if (blen[i] == 1 && a[i] - nlo[i] == ihi[i] - ilo[i] &&
        depth[i] >= lut_k) {
      stalled[i] = true;
    }
    ilo[i] = nlo[i];
    ihi[i] = a[i];
    depth[i] += blen[i];
    route(i);
    return false;
  }

  /// LCP of the query in lane `i` against the suffix at `pos`, starting
  /// from the `d` characters already known to match.
  u64 row_lcp(usize i, u64 pos, u64 d) const {
    const u64 limit = std::min<u64>(qlen[i], tsize - pos);
    const char* qq = q[i];
    if (ptext.active()) {
      // Packed text: wide-word kernel (32/64/128 bases per XOR) when the
      // lane's query packed; per-base decode otherwise.
      if (qpacked[i]) {
        return packed_lcp(ptext, pos, qcodes[i], qexc[i], d, limit);
      }
      while (d < limit && ptext.at(pos + d) == qq[d]) ++d;
      return d;
    }
    const char* t = text.data() + pos;
    while (d + sizeof(u64) <= limit) {
      u64 tw, qw;
      std::memcpy(&tw, t + d, sizeof(u64));
      std::memcpy(&qw, qq + d, sizeof(u64));
      const u64 x = tw ^ qw;
      if (x != 0) return d + static_cast<u64>(std::countr_zero(x)) / 8;
      d += sizeof(u64);
    }
    while (d < limit && t[d] == qq[d]) ++d;
    return d;
  }

  /// Direct scan of a gathered lane: per-row LCP, then the maximal
  /// contiguous block becomes the result.
  void compare_rows(usize i) {
    u32 lens[kT];
    u32 best = depth[i];
    for (u32 r = 0; r < rn[i]; ++r) {
      lens[r] = static_cast<u32>(row_lcp(i, rpos[i][r], depth[i]));
      if (lens[r] > best) best = lens[r];
    }
    if (best > depth[i]) {
      u32 lo = 0;
      while (lens[lo] < best) ++lo;
      u32 hi = rn[i];
      while (lens[hi - 1] < best) --hi;
      ilo[i] += lo;
      ihi[i] = ilo[i] + (hi - lo);
      depth[i] = best;
    }
  }

  void run(GenomeIndex::MmpFeed& feed) {
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
      if (n_free == kLanes) return;  // nothing in flight, nothing pending

      // Narrow, issue half: every lane's SA probe, prefetching its text.
      for (usize k = 0; k < n_narrow; ++k) {
        const usize i = narrow[k];
        rpos[i][0] = sa[mid[i]];
        prefetch_text(rpos[i][0] + depth[i]);
      }
      // Direct, gather half: read the rows, prefetch their text.
      n_gathered = n_direct;
      for (usize k = 0; k < n_direct; ++k) {
        const usize i = direct[k];
        gathered[k] = static_cast<u8>(i);
        rn[i] = ihi[i] - ilo[i];
        for (u32 r = 0; r < rn[i]; ++r) {
          rpos[i][r] = sa[ilo[i] + r];
          prefetch_text(rpos[i][r] + depth[i]);
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
      // Narrow, consume half.
      usize kept = 0;
      for (usize k = 0; k < n_narrow; ++k) {
        const usize i = narrow[k];
        const u64 pos = rpos[i][0] + depth[i];
        bool go_right;
        if (blen[i] > 1) {
          const int cmp = packed_block_compare(ptext, tsize, pos, qcodes[i],
                                               qexc[i], depth[i], blen[i]);
          go_right = nmode[i] == 0 ? cmp < 0 : cmp <= 0;
        } else {
          const i32 c = probe_char(pos);
          go_right = nmode[i] == 0 ? (c < target[i]) : (c <= target[i]);
        }
        if (consume_probe(i, go_right)) narrow[kept++] = static_cast<u8>(i);
      }
      for (usize k = 0; k < n_started; ++k) narrow[kept++] = started[k];
      n_narrow = kept;
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

void GenomeIndex::mmp_batch_stream(MmpFeed& feed) const {
  MmpBatchWalker walker(*this);
  walker.run(feed);
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
  if (storage_.has_packed()) {
    // Resident packed text: 2-bit codes + per-page slot table + dirty
    // overlay blocks — ~0.25 bytes/base vs 1 byte/base raw, the ~4x the
    // footprint/rightsizing layer consumes.
    const PackedTextView v = storage_.packed_view();
    stats.text_bytes =
        ByteSize(packed_code_words(v.size) * sizeof(u64) +
                 (v.num_pages + 1) * sizeof(u32) +
                 v.num_exc_blocks * kPackedPageWords * sizeof(u64));
    stats.packed_text = true;
  } else {
    stats.text_bytes = ByteSize(storage_.text().size());
  }
  stats.suffix_array_bytes = ByteSize(storage_.sa().size() * sizeof(u32));
  stats.lut_bytes = ByteSize(storage_.lut().size() * sizeof(LutCell));
  u64 mini_bytes = 0;
  for (u32 k = 1; k <= 4; ++k) {
    mini_bytes += storage_.mini(k).size() * sizeof(LutCell);
  }
  stats.mini_lut_bytes = ByteSize(mini_bytes);
  stats.genome_length = storage_.text_size() - (contigs_.size() - 1);
  stats.num_contigs = contigs_.size();
  stats.prefix_lut_k = lut_k_;
  return stats;
}

std::string GenomeIndex::text_substr(u64 pos, u64 len) const {
  const u64 tsize = storage_.text_size();
  STARATLAS_CHECK(pos <= tsize);
  len = std::min(len, tsize - pos);
  if (!storage_.has_packed()) {
    return std::string(storage_.text().substr(pos, len));
  }
  return storage_.packed_view().decode(pos, len);
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
  const u64 tsize = storage_.text_size();
  mix_u64(tsize);
  mix_u64(contigs_.size());
  for (const ContigMeta& contig : contigs_) {
    mix_str(contig.name);
    mix_byte(static_cast<u8>(contig.cls));
    mix_u64(contig.text_offset);
    mix_u64(contig.length);
  }
  // Sampled content guards against same-shaped but different genomes.
  // text_substr decodes to the original bytes, so the content mix is
  // encoding-independent.
  const usize sample = static_cast<usize>(std::min<u64>(tsize, 64));
  mix_str(text_substr(0, sample));
  mix_str(text_substr(tsize - sample, sample));
  // Text-encoding tag (0 = raw bytes, 1 = 2-bit packed): a packed-v4 and
  // a raw-v3 load of the same genome must *not* cross-merge through the
  // JunctionCollector fingerprint guard — their collectors hold
  // different index representations even though the genome is the same.
  // Deliberately not the raw version number: it says how the text is
  // resident, not which file format carried it.
  mix_byte(storage_.has_packed() ? 1 : 0);
  return h;
}

// ---------------------------------------------------------------------------
// Serialization.

void GenomeIndex::save(std::ostream& out, u32 version) const {
  if (version != kVersionV3 && version != kVersionV4) {
    throw InvalidArgument("unsupported index save version " +
                          std::to_string(version));
  }
  save_sectioned(out, version);
}

std::string GenomeIndex::serialize_meta() const {
  std::ostringstream buf(std::ios::out | std::ios::binary);
  BinaryWriter writer(buf);
  writer.write_string(species_);
  writer.write_u32(static_cast<u32>(release_));
  writer.write_u8(type_ == AssemblyType::kToplevel ? 0 : 1);
  writer.write_u32(lut_k_);
  writer.write_u64(storage_.text_size());
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

void GenomeIndex::save_sectioned(std::ostream& out, u32 version) const {
  const std::string meta = serialize_meta();
  const std::span<const u32> sa = storage_.sa();
  const std::span<const LutCell> lut = storage_.lut();
  const bool packed_out = version == kVersionV4;

  // Raw text payload: empty for v4 (the packed sections carry the text);
  // decoded on the fly when a packed index saves the raw v3 format.
  std::string raw_backing;
  std::string_view text;
  if (!packed_out) {
    if (storage_.has_packed()) {
      raw_backing = storage_.packed_view().decode(0, storage_.text_size());
      text = raw_backing;
    } else {
      text = storage_.text();
    }
  }
  // Packed payload for v4: borrowed from storage when already packed,
  // packed on the fly from a raw index otherwise.
  PackedText packed_tmp;
  PackedTextView pv;
  if (packed_out) {
    if (storage_.has_packed()) {
      pv = storage_.packed_view();
    } else {
      packed_tmp = PackedText::pack(storage_.text());
      pv = packed_tmp.view();
    }
  }

  struct Payload {
    u32 id;
    const void* data;
    u64 length;
  };
  std::vector<Payload> payloads = {
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
  if (packed_out) {
    payloads.push_back(
        {kSecPackedCodes, pv.codes, packed_code_words(pv.size) * sizeof(u64)});
    payloads.push_back(
        {kSecPackedSlots, pv.page_slots, (pv.num_pages + 1) * sizeof(u32)});
    payloads.push_back({kSecPackedExc, pv.exc_blocks,
                        pv.num_exc_blocks * kPackedPageWords * sizeof(u64)});
  }

  BinaryWriter writer(out);
  writer.write_u32(kIndexMagic);
  writer.write_u32(version);
  writer.write_u64(payloads.size());
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
    if (version != kVersionV3 && version != kVersionV4) {
      throw ParseError("unsupported index version " + std::to_string(version));
    }
    return load_sectioned_stream(reader, version);
  } catch (const IoError& e) {
    // A corrupt length prefix or truncated file surfaces as a short read
    // deep in the reader; fold it into the one corruption exception type
    // callers are promised.
    throw ParseError(std::string("index truncated or unreadable: ") +
                     e.what());
  }
}

GenomeIndex GenomeIndex::load_sectioned_stream(BinaryReader& reader,
                                               u32 version) {
  const usize num_sections = sections_for_version(version);
  const u64 count = reader.read_u64();
  if (count != num_sections) corrupt("bad section count");
  std::vector<SectionInfo> sections(num_sections);
  u64 prev_end = 0;
  for (usize i = 0; i < num_sections; ++i) {
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
  std::vector<u64> pcodes;
  std::vector<u32> pslots;
  std::vector<u64> pexc;
  for (usize i = 0; i < num_sections; ++i) {
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
        // v4 stores no raw text; the packed sections carry it.
        const u64 expected = version == kVersionV4 ? 0 : text_size;
        if (s.length != expected) corrupt("text section size mismatch");
        index.storage_.text_owned.resize(s.length);
        reader.read_blob(index.storage_.text_owned.data(), s.length);
        checksum = fnv1a64(index.storage_.text_owned.data(), s.length);
        break;
      }
      case kSecPackedCodes: {
        if (s.length != packed_codes_bytes(text_size)) {
          corrupt("packed code section size mismatch");
        }
        pcodes.resize(s.length / sizeof(u64));
        reader.read_blob(pcodes.data(), s.length);
        checksum = fnv1a64(pcodes.data(), s.length);
        break;
      }
      case kSecPackedSlots: {
        if (s.length != packed_slots_bytes(text_size)) {
          corrupt("packed slot section size mismatch");
        }
        pslots.resize(s.length / sizeof(u32));
        reader.read_blob(pslots.data(), s.length);
        checksum = fnv1a64(pslots.data(), s.length);
        break;
      }
      case kSecPackedExc: {
        if (s.length % (kPackedPageWords * sizeof(u64)) != 0) {
          corrupt("packed exception section size mismatch");
        }
        pexc.resize(s.length / sizeof(u64));
        reader.read_blob(pexc.data(), s.length);
        checksum = fnv1a64(pexc.data(), s.length);
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
  if (version == kVersionV4) {
    // from_raw re-validates array sizes and the slot table; surface its
    // rejections as the one corruption exception type loads promise.
    try {
      index.storage_.packed_owned = PackedText::from_raw(
          text_size, std::move(pcodes), std::move(pslots), std::move(pexc));
    } catch (const InvalidArgument& e) {
      corrupt(e.what());
    }
    index.storage_.packed_size = text_size;
    index.storage_.packed = true;
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
  if (version != kVersionV3 && version != kVersionV4) {
    throw ParseError("unsupported index version " + std::to_string(version));
  }
  const usize num_sections = sections_for_version(version);
  u64 count = 0;
  read_at(8, count);
  if (count != num_sections) corrupt("bad section count");

  GenomeIndex index;
  index.sections_.resize(num_sections);
  u64 prev_end = 0;
  for (usize i = 0; i < num_sections; ++i) {
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
  const u64 expected_text = version == kVersionV4 ? 0 : text_size;
  if (text.length != expected_text) corrupt("text section size mismatch");
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
  if (version == kVersionV4) {
    const SectionInfo& pc = index.sections_[8];
    const SectionInfo& ps = index.sections_[9];
    const SectionInfo& pe = index.sections_[10];
    if (pc.length != packed_codes_bytes(text_size)) {
      corrupt("packed code section size mismatch");
    }
    if (ps.length != packed_slots_bytes(text_size)) {
      corrupt("packed slot section size mismatch");
    }
    if (pe.length % (kPackedPageWords * sizeof(u64)) != 0) {
      corrupt("packed exception section size mismatch");
    }
    index.storage_.packed_codes_view = std::span<const u64>(
        reinterpret_cast<const u64*>(data + pc.offset),
        pc.length / sizeof(u64));
    index.storage_.packed_slots_view = std::span<const u32>(
        reinterpret_cast<const u32*>(data + ps.offset),
        ps.length / sizeof(u32));
    index.storage_.packed_exc_view = std::span<const u64>(
        reinterpret_cast<const u64*>(data + pe.offset),
        pe.length / sizeof(u64));
    // The slot table is the one packed structure whose corruption turns
    // into out-of-bounds reads rather than wrong answers, so it is
    // validated even on the O(header) attach (it is ~1/1000 the text).
    validate_packed_slots(index.storage_.packed_slots_view,
                          packed_pages(text_size),
                          pe.length / (kPackedPageWords * sizeof(u64)));
    index.storage_.packed_size = text_size;
    index.storage_.packed = true;
  }
  // Structural checks only: a deep scan would fault in every page,
  // defeating the O(header) attach. verify_checksums() is the on-demand
  // integrity pass.
  index.validate_loaded(/*deep=*/false);
  return index;
}

void GenomeIndex::validate_loaded(bool deep) const {
  const u64 tsize = storage_.text_size();
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
