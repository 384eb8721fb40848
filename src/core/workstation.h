// Workstation/HPC batch mode — the paper's closing remark that the two
// optimizations "are applicable outside the cloud environment (HPC or
// workstations)": run the full four-stage pipeline over a batch of
// accessions on one machine and finish with the DESeq2 stage across the
// accepted samples.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "quant/count_matrix.h"
#include "quant/deseq2.h"

namespace staratlas {

struct WorkstationReport {
  std::vector<AccessionResult> samples;
  usize accepted = 0;
  usize early_stopped = 0;
  usize rejected = 0;
  double align_wall_seconds = 0.0;
  /// Counts across accepted samples only (the atlas content).
  CountMatrix counts;
  /// DESeq2 size factors per accepted sample; empty when the estimator is
  /// undefined (fewer than 1 accepted sample or no common genes).
  std::vector<double> size_factors;
};

/// Processes `accessions` sequentially (each sample's alignment uses the
/// engine's own threads), assembles the count matrix from accepted
/// samples, and normalizes it.
WorkstationReport run_workstation_batch(
    const GenomeIndex& index, const Annotation& annotation,
    SraRepository& repository, const std::vector<std::string>& accessions,
    const PipelineConfig& config);

}  // namespace staratlas
