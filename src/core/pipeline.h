// The real, in-process Transcriptomics Atlas pipeline for one accession
// (Fig 1): prefetch -> fasterq-dump -> STAR alignment (+GeneCounts,
// optional early stopping) -> counts. Everything here does the actual data
// work on synthetic-scale inputs; the cloud simulator (atlas_sim.h) models
// the same stages at paper scale in virtual time.
#pragma once

#include <string>

#include "align/engine.h"
#include "align/early_stopping.h"
#include "genome/annotation.h"
#include "index/genome_index.h"
#include "sra/repository.h"

namespace staratlas {

struct PipelineConfig {
  EngineConfig engine;
  EarlyStopPolicy early_stop;
};

/// One accession's trip through the pipeline.
struct AccessionResult {
  std::string accession;
  LibraryType library_type = LibraryType::kBulk;
  u64 total_reads = 0;
  ByteSize sra_bytes;    ///< synthetic container size
  ByteSize fastq_bytes;  ///< synthetic decoded FASTQ size
  MappingStats stats;
  GeneCountsTable gene_counts;
  EarlyStopDecision early_stop;
  bool accepted = false;  ///< completed with acceptable mapping rate
  double align_wall_seconds = 0.0;
  double dump_wall_seconds = 0.0;
};

/// Former name, still used by perfbench/pipeline_workload.cc. The service has
/// its own SampleResult (service/types.h): a translation unit including
/// both headers fails to compile instead of merging two layouts.
using SampleResult = AccessionResult;

/// Runs the four pipeline stages for every accession handed to process().
/// The alignment engine (worker pool, workspaces, gene-count tables) is
/// built once and reused for every accession, so a multi-sample campaign
/// pays engine setup a single time.
class PipelineRunner {
 public:
  PipelineRunner(const GenomeIndex& index, const Annotation& annotation,
                 SraRepository& repository, PipelineConfig config);

  /// Processes one accession end to end.
  AccessionResult process(const std::string& accession);

 private:
  const GenomeIndex* index_;
  const Annotation* annotation_;
  SraRepository* repository_;
  PipelineConfig config_;
  AlignmentEngine engine_;  ///< reused across accessions (LoadAndKeep analog)
};

}  // namespace staratlas
