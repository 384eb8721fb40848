// Aligner tuning parameters, named after their STAR counterparts where one
// exists. Defaults mirror STAR's spirit at our read scale (100 bp reads,
// MiB genomes).
#pragma once

#include "common/types.h"

namespace staratlas {

struct AlignerParams {
  /// Minimum MMP length to use as a seed.
  usize seed_min_length = 18;
  /// Maximum seeds recorded per read per strand; the seed walks stop once
  /// this many are found (MMPs too short to seed do not count).
  usize max_seeds_per_read = 16;
  /// STAR's seedSearchStartLmax: a fresh MMP search starts at every
  /// multiple of this offset along the read (in addition to the restart
  /// after each MMP), so long error-free reads still produce multiple
  /// seeds per strand.
  usize seed_search_start_lmax = 50;
  /// Loci enumerated per seed; hyper-repetitive seeds are capped here and
  /// the read is flagged repetitive. Like STAR, this is large: repetitive
  /// seeds genuinely cost enumeration + clustering work, which is exactly
  /// what makes repeat-laden (release-108-style) indices slow.
  u32 anchor_max_loci = 4096;
  /// Loci fed to one window's stitching DP (STAR: seedPerWindowNmax family).
  u32 window_loci_cap = 640;
  /// Maximum reported loci before a read becomes "too many loci"
  /// (STAR: outFilterMultimapNmax; 50 matches the ENCODE long-RNA setting
  /// and keeps multimappers *mapped* on scaffold-heavy assemblies).
  u32 multimap_nmax = 50;
  /// Loci scoring within this of the best are counted as alignments
  /// (STAR: outFilterMultimapScoreRange).
  u32 multimap_score_range = 2;
  /// Minimum matched-bases fraction of read length to call a read mapped
  /// (STAR: outFilterMatchNminOverLread).
  double min_matched_fraction = 0.66;
  /// Maximum genomic gap bridged when stitching seeds (intron cap;
  /// STAR: alignIntronMax).
  u64 max_intron = 30'000;
  /// X-drop threshold for end extension.
  int xdrop = 8;
};

}  // namespace staratlas
