// Single-read alignment: seeds both orientations, scores candidate
// windows, and classifies the read (unique / multi / too-many / unmapped)
// with STAR-equivalent filter semantics.
#pragma once

#include <span>
#include <string_view>

#include "align/extend.h"
#include "align/params.h"
#include "align/record.h"
#include "align/workspace.h"
#include "index/genome_index.h"

namespace staratlas {

class Aligner {
 public:
  Aligner(const GenomeIndex& index, const AlignerParams& params)
      : index_(&index), params_(params) {}

  const AlignerParams& params() const { return params_; }
  const GenomeIndex& index() const { return *index_; }

  /// Aligns one read using `ws` for all scratch storage and writing into
  /// `result` (reset first; its hit capacity is reused). Work counters
  /// (seeds/windows/bases) are accumulated into `work`; the outcome
  /// counter is NOT updated here (the engine owns outcome accounting).
  /// With a warmed workspace and result it performs zero heap allocations
  /// per read. `result` must not alias a workspace member. Per-read align
  /// is the reference oracle for the batched path: the tests' serial
  /// reference (tests/testutil.h) aligns read by read through it and the
  /// engine, which runs align_batch, must match it exactly.
  void align(std::string_view read, AlignWorkspace& ws, MappingStats& work,
             ReadAlignment& result) const;

  /// Batched form of align(): produces per-read results bit-identical to
  /// align() on each read, but runs the whole batch's seed phase first —
  /// all reads' forward and reverse-complement MMP walks advance together
  /// through GenomeIndex::mmp_batch, overlapping the suffix-array cache
  /// misses that dominate alignment time — and only then finishes each
  /// read (extension, scoring, classification) individually. Work counters
  /// accumulate into `work` in read order, exactly as per-read align()
  /// calls would. `results.size()` must equal `reads.size()`; each entry
  /// is reset. Zero steady-state heap allocations with warmed lanes.
  void align_batch(std::span<const std::string_view> reads,
                   AlignWorkspace& ws, MappingStats& work,
                   std::span<ReadAlignment> results) const;

  /// Convenience form with a throwaway workspace (allocates; tests/tools).
  ReadAlignment align(std::string_view read, MappingStats& work) const;

 private:
  /// Shared back half of align()/align_batch(): window scoring for both
  /// orientations' seeds, hit sorting, and outcome classification.
  void finish_read(std::string_view read, std::string_view rc,
                   const SeedSearchResult& fwd_seeds,
                   const SeedSearchResult& rev_seeds, AlignWorkspace& ws,
                   MappingStats& work, ReadAlignment& result) const;

  /// Classification tail shared by align() and finish_read(): folds the
  /// extension counters into `work`, sorts the candidate hits, and
  /// resolves the read's outcome.
  void classify(std::string_view read, const ExtendStats& extend_stats,
                AlignWorkspace& ws, MappingStats& work,
                ReadAlignment& result) const;

  const GenomeIndex* index_;
  AlignerParams params_;
};

}  // namespace staratlas
