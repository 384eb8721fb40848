// Seed search: STAR's Maximal Mappable Prefix walk over a read.
//
// A walk starts at read offset 0 and finds the longest prefix of the
// remaining read that occurs in the genome (via the suffix-array index). It
// records that prefix as a seed if it is long enough, then restarts just
// past it. Splice junctions and sequencing errors naturally split a read
// into multiple seeds. A fresh walk also starts at every
// seed_search_start_lmax boundary (STAR's seedSearchStartLmax).
//
// Two rules prune MMP calls that can never change the seeds:
//   - Tail rule: no MMP is issued whose query (the rest of the read) is
//     shorter than seed_min_length. Its match is at most that long, so it
//     cannot become a seed, and every later offset of the walk is shorter
//     still.
//   - Merge rule: a walk stops at any offset an earlier walk of the same
//     read already issued an MMP at, seeded or not. The MMP at an offset
//     depends only on the read from there on, so from a shared offset both
//     walks take the same path; the later one could only re-find seeds
//     that are already recorded (or stop at one of them).
// Both are exact: seeds, their order and their intervals are those of the
// unpruned walk; only mmp_calls and chars_matched drop.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "align/params.h"
#include "common/types.h"
#include "index/genome_index.h"

namespace staratlas {

struct Seed {
  u64 read_offset = 0;
  u64 length = 0;
  SaInterval interval;  ///< suffix-array rows of the seed's occurrences
};

struct SeedSearchResult {
  std::vector<Seed> seeds;
  u64 mmp_calls = 0;      ///< MMP invocations performed (work accounting)
  u64 chars_matched = 0;  ///< total matched characters across MMPs
  /// Scratch: one byte per read offset, set where a walk issued an MMP
  /// (the merge rule's visited mark; every seeded offset is visited).
  /// Reused (capacity and all) across reads by the alignment workspace.
  std::vector<u8> offset_visited;

  /// Empties the result for a fresh read of `read_length` bases without
  /// releasing any capacity.
  void clear(usize read_length) {
    seeds.clear();
    mmp_calls = 0;
    chars_matched = 0;
    offset_visited.assign(read_length, 0);
  }
};

/// Runs the MMP walk over `read` against `index`, writing into `result`
/// (cleared first; buffers are reused). This is the hot-path interface —
/// steady-state it performs no heap allocations.
void find_seeds(const GenomeIndex& index, std::string_view read,
                const AlignerParams& params, SeedSearchResult& result);

/// Convenience form that returns a fresh result (allocates; tests/tools).
SeedSearchResult find_seeds(const GenomeIndex& index, std::string_view read,
                            const AlignerParams& params);

/// Walk-state buffers for find_seeds_batch, reused batch after batch so
/// the steady state allocates nothing. Owned by AlignWorkspace.
struct SeedBatchScratch {
  std::vector<u32> ready;   ///< walks whose next MMP start is pending
  std::vector<u64> grid;    ///< per-walk: current restart-grid boundary
  std::vector<u64> offset;  ///< per-walk: current MMP start offset
};

/// Batched find_seeds: runs the MMP walk of every read in `reads`, writing
/// results[i] for reads[i]. Each result is bit-identical to a find_seeds
/// call on that read alone — same seeds, same mmp_calls/chars_matched
/// accounting — but the walks advance together as a feed into
/// GenomeIndex::mmp_batch_stream, so the dependent suffix-array loads
/// that serialize a lone walk overlap across up to 64 in-flight walks,
/// and a walk's next restart re-enters the lanes the moment its previous
/// MMP resolves. Steady-state it performs no heap allocations.
/// `reads.size()` must equal `results.size()`.
void find_seeds_batch(const GenomeIndex& index,
                      std::span<const std::string_view> reads,
                      const AlignerParams& params,
                      std::span<SeedSearchResult> results,
                      SeedBatchScratch& scratch);

}  // namespace staratlas
