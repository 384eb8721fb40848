#include "align/seed.h"

#include <algorithm>

#include "common/error.h"

namespace staratlas {

namespace {
/// Advances one walk's (grid, offset) cursor to its next MMP start, or
/// returns false when the read's walks are finished. A walk ends at its
/// tail (fewer than seed_min_length bases left: tail rule) or at an offset
/// an earlier walk visited (merge rule); the next walk then starts at the
/// next lmax grid boundary. Hitting max_seeds_per_read ends everything.
bool next_mmp_start(usize read_length, const SeedSearchResult& result,
                    const AlignerParams& params, u64 lmax, u64& grid,
                    u64& offset) {
  const u64 min_query = std::max<u64>(1, params.seed_min_length);
  if (read_length < min_query) return false;
  const u64 last_start = read_length - min_query;
  for (;;) {
    if (result.seeds.size() >= params.max_seeds_per_read) return false;
    if (offset <= last_start && !result.offset_visited[offset]) return true;
    grid += lmax;
    if (grid > last_start) return false;
    offset = grid;
  }
}

/// Records the MMP issued at `offset` and steps the walk past it: a long
/// enough match becomes a seed and the walk restarts at its end; a shorter
/// one (a sequencing error or foreign sequence) is stepped over, failure
/// point included, as STAR does.
void apply_mmp(const MmpResult& mmp, const AlignerParams& params,
               SeedSearchResult& result, u64& offset) {
  result.offset_visited[offset] = 1;
  ++result.mmp_calls;
  result.chars_matched += mmp.length;
  if (mmp.length >= params.seed_min_length) {
    result.seeds.push_back({offset, mmp.length, mmp.interval});
    offset += mmp.length;
  } else {
    offset += mmp.length + 1;
  }
}

u64 start_lmax(const AlignerParams& params) {
  return std::max<usize>(1, params.seed_search_start_lmax);
}
}  // namespace

void find_seeds(const GenomeIndex& index, std::string_view read,
                const AlignerParams& params, SeedSearchResult& result) {
  result.clear(read.size());
  const u64 lmax = start_lmax(params);
  MmpResult mmp;
  u64 grid = 0;
  u64 offset = 0;
  while (next_mmp_start(read.size(), result, params, lmax, grid, offset)) {
    index.mmp(read.substr(offset), mmp);
    apply_mmp(mmp, params, result, offset);
  }
}

SeedSearchResult find_seeds(const GenomeIndex& index, std::string_view read,
                            const AlignerParams& params) {
  SeedSearchResult result;
  find_seeds(index, read, params, result);
  return result;
}

namespace {
/// Drives every read's MMP walk through the streaming batch walker. The
/// tag is the walk (= read) index. next() prefers walks freshly advanced
/// by done() — LIFO, so a restart issues while its read tail is still in
/// cache — and falls back to starting the next unstarted read. Each
/// walk's queries execute strictly in walk order, so its result is
/// independent of how walks interleave across lanes.
class SeedWalkFeed final : public GenomeIndex::MmpFeed {
 public:
  SeedWalkFeed(std::span<const std::string_view> reads,
               const AlignerParams& params,
               std::span<SeedSearchResult> results, SeedBatchScratch& s)
      : reads_(reads),
        params_(params),
        results_(results),
        s_(s),
        lmax_(start_lmax(params)) {}

  bool next(std::string_view& query, u32& tag) override {
    u32 w;
    if (!s_.ready.empty()) {
      w = s_.ready.back();
      s_.ready.pop_back();
    } else {
      for (;;) {
        if (cursor_ >= reads_.size()) return false;
        w = static_cast<u32>(cursor_++);
        results_[w].clear(reads_[w].size());
        if (next_mmp_start(reads_[w].size(), results_[w], params_, lmax_,
                           s_.grid[w], s_.offset[w])) {
          break;
        }
      }
    }
    query = reads_[w].substr(s_.offset[w]);
    tag = w;
    return true;
  }

  void done(u32 w, const MmpResult& mmp) override {
    SeedSearchResult& result = results_[w];
    apply_mmp(mmp, params_, result, s_.offset[w]);
    if (next_mmp_start(reads_[w].size(), result, params_, lmax_, s_.grid[w],
                       s_.offset[w])) {
      s_.ready.push_back(w);
    }
  }

 private:
  std::span<const std::string_view> reads_;
  const AlignerParams& params_;
  std::span<SeedSearchResult> results_;
  SeedBatchScratch& s_;
  const u64 lmax_;
  usize cursor_ = 0;
};
}  // namespace

void find_seeds_batch(const GenomeIndex& index,
                      std::span<const std::string_view> reads,
                      const AlignerParams& params,
                      std::span<SeedSearchResult> results,
                      SeedBatchScratch& scratch) {
  STARATLAS_CHECK(reads.size() == results.size());
  scratch.grid.assign(reads.size(), 0);
  scratch.offset.assign(reads.size(), 0);
  scratch.ready.clear();
  SeedWalkFeed feed(reads, params, results, scratch);
  index.mmp_batch_stream(feed);
}

}  // namespace staratlas
