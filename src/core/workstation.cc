#include "core/workstation.h"

#include "common/error.h"
#include "common/log.h"

namespace staratlas {

WorkstationReport run_workstation_batch(
    const GenomeIndex& index, const Annotation& annotation,
    SraRepository& repository, const std::vector<std::string>& accessions,
    const PipelineConfig& config) {
  WorkstationReport report;
  std::vector<std::string> gene_ids;
  for (const Gene& gene : annotation.genes()) gene_ids.push_back(gene.id);
  report.counts = CountMatrix(gene_ids);

  PipelineRunner runner(index, annotation, repository, config);
  for (const std::string& accession : accessions) {
    AccessionResult result = runner.process(accession);
    report.align_wall_seconds += result.align_wall_seconds;
    if (result.early_stop.stopped) {
      ++report.early_stopped;
    } else if (result.accepted) {
      ++report.accepted;
      report.counts.add_sample(accession, result.gene_counts);
    } else {
      ++report.rejected;
    }
    report.samples.push_back(std::move(result));
  }

  if (report.counts.num_samples() >= 1) {
    try {
      report.size_factors = deseq2_size_factors(report.counts);
    } catch (const InvalidArgument& e) {
      // No gene covered in every sample: leave factors empty.
      STARATLAS_LOG(kWarn) << "DESeq2 undefined for batch: " << e.what();
    }
  }
  return report;
}

}  // namespace staratlas
