// The unpruned MMP seed walk, kept as the oracle for find_seeds and
// find_seeds_batch. It issues an MMP at every offset the walk reaches,
// including read tails shorter than seed_min_length, and a walk stops only
// at an offset that already holds a seed. Production walks prune both
// cases (the tail and merge rules in align/seed.h); their seeds must equal
// this walk's exactly, with no more MMP calls.
#pragma once

#include <algorithm>
#include <string_view>
#include <vector>

#include "align/params.h"
#include "align/seed.h"
#include "index/genome_index.h"

namespace staratlas::testing {

inline SeedSearchResult unpruned_find_seeds(const GenomeIndex& index,
                                            std::string_view read,
                                            const AlignerParams& params) {
  SeedSearchResult result;
  std::vector<u8> seeded(read.size(), 0);
  MmpResult mmp;
  const u64 lmax = std::max<usize>(1, params.seed_search_start_lmax);
  for (u64 grid = 0; grid < read.size(); grid += lmax) {
    u64 offset = grid;
    while (offset < read.size() &&
           result.seeds.size() < params.max_seeds_per_read) {
      if (seeded[offset]) break;  // this walk merged into a previous one
      index.mmp(read.substr(offset), mmp);
      ++result.mmp_calls;
      result.chars_matched += mmp.length;
      if (mmp.length >= params.seed_min_length) {
        result.seeds.push_back({offset, mmp.length, mmp.interval});
        seeded[offset] = 1;
        offset += mmp.length;
      } else {
        offset += mmp.length + 1;
      }
    }
    if (result.seeds.size() >= params.max_seeds_per_read) break;
  }
  return result;
}

}  // namespace staratlas::testing
