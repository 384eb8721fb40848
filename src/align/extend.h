// Seed stitching and extension: turns seed occurrences into scored,
// possibly spliced, candidate alignments.
//
// Mirrors STAR's architecture: seed loci are grouped into genomic windows
// (diagonal clustering bounded by the intron cap), each window's seeds are
// stitched by a chaining DP, chain ends are extended with X-drop, and each
// window yields at most one candidate alignment hit. The work performed
// here — loci enumerated, chains computed, bases compared — is exactly
// what makes repetitive (release-108-style) genomes slow, so the counters
// are reported faithfully.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "align/params.h"
#include "align/record.h"
#include "align/seed.h"
#include "common/simd.h"
#include "index/genome_index.h"

namespace staratlas {

struct ExtendStats {
  u64 windows_scored = 0;
  u64 bases_compared = 0;
  u64 loci_enumerated = 0;
  bool capped = false;  ///< some seed exceeded anchor_max_loci
};

/// One end-extension job for the striped multi-window driver. score_windows
/// records two per window (left of the first chained seed, right of the
/// last), then a single driver pass extends every window of the read a
/// 32-base strip at a time, round-robin, so the text loads of several
/// genomic windows are in flight at once instead of one window stalling
/// the pipeline at a time. Each task ends with the result of one whole
/// X-drop scan (+1/-2 scoring) run alone.
struct ScanTask {
  u64 read_pos = 0;   ///< read anchor; exclusive when scanning backward
  u64 text_pos = 0;   ///< text anchor; exclusive when scanning backward
  u64 limit = 0;      ///< max scan length (min of read/text headroom)
  bool fwd = true;    ///< scan direction
  bool done = false;  ///< x-drop break fired; skip the tail pass
  // Live scan state (resumed strip after strip by the driver).
  int score = 0;
  int best_score = 0;
  u64 matched = 0;
  u64 len = 0;
  // Outputs, valid once the driver finishes.
  u64 best_matched = 0;  ///< matched bases within the best-scoring prefix
  u64 best_len = 0;      ///< length of the best-scoring prefix
  u64 compared = 0;      ///< bases examined
};

/// 32-bit mismatch mask of a[0..32) vs b[0..32): bit i set iff base i
/// differs. One mask is one strip of the driver.
using StripMaskFn = u32 (*)(const char* a, const char* b);

/// Strip-mask kernel compiled for `level`, or null when this build lacks
/// it (non-x86 builds compile only the scalar one). score_windows binds
/// the pick_kernel choice once; tests drive every level explicitly.
StripMaskFn strip_mask_kernel(SimdLevel level);

/// The striped driver: runs every task to completion, one strip per live
/// task per round, round-robin, prefetching the next task's strip, then
/// finishes tails shorter than a strip per base. Tasks hold positions into
/// `read` and `text`; `live` is caller scratch, reused across reads.
void run_scan_tasks(std::string_view read, std::string_view text, int xdrop,
                    StripMaskFn mask, std::span<ScanTask> tasks,
                    std::vector<u32>& live);

/// Deferred per-window assembly: what Phase A (chain + gap compares)
/// computed, waiting for Phase B (the striped driver) to finish both
/// extension tasks so Phase C can apply them and emit the hit.
struct WindowPlan {
  u64 matched = 0;   ///< chained seed bases + interior gap matches
  u32 seg_begin = 0; ///< [seg_begin, seg_end) into ws.plan_segments
  u32 seg_end = 0;
  u32 left_task = 0;   ///< index into ws.tasks (backward extension)
  u32 right_task = 0;  ///< index into ws.tasks (forward extension)
};

/// One genomic occurrence of a seed, the unit the window clustering and
/// chaining DP operate on.
struct SeedLocus {
  u64 read_offset = 0;
  u64 length = 0;
  GenomePos text_start = 0;
  ContigId contig = 0;

  i64 diagonal() const {
    return static_cast<i64>(text_start) - static_cast<i64>(read_offset);
  }
  u64 read_end() const { return read_offset + length; }
  GenomePos text_end() const { return text_start + length; }
};

/// Scratch buffers for score_windows: locus enumeration, per-window slices,
/// the chaining DP bands, and segment assembly. Owned by AlignWorkspace and
/// reused read after read, so the steady state allocates nothing.
struct ExtendWorkspace {
  std::vector<SeedLocus> loci;
  std::vector<SeedLocus> window;
  std::vector<u64> chain_score;   ///< DP: best chain score ending at i
  std::vector<i64> chain_prev;    ///< DP: predecessor of i (-1 = none)
  std::vector<usize> chain;       ///< backtracked best chain, ascending
  std::vector<AlignedSegment> segments;  ///< pre-merge segment assembly
  // Striped extension driver state, spanning all windows of one read.
  std::vector<WindowPlan> plans;
  std::vector<AlignedSegment> plan_segments;  ///< all plans' segments
  std::vector<ScanTask> tasks;   ///< two extension tasks per plan
  std::vector<u32> live;         ///< driver round-robin scratch
};

/// Scores all candidate windows implied by `seeds` for `read` (already
/// orientation-resolved), appending one hit per window with score > 0 to
/// `hits`. Hot-path interface: all scratch comes from `ws`, so warmed
/// buffers make this allocation-free except when a hit spills its inline
/// segment storage.
void score_windows(const GenomeIndex& index, std::string_view read,
                   const std::vector<Seed>& seeds, bool reverse,
                   const AlignerParams& params, ExtendStats& stats,
                   ExtendWorkspace& ws, std::vector<AlignmentHit>& hits);

/// Convenience form returning a fresh hit vector (allocates; tests/tools).
std::vector<AlignmentHit> score_windows(const GenomeIndex& index,
                                        std::string_view read,
                                        const std::vector<Seed>& seeds,
                                        bool reverse,
                                        const AlignerParams& params,
                                        ExtendStats& stats);

}  // namespace staratlas
