#include "core/pipeline.h"

#include <chrono>

#include "align/run_request.h"
#include "common/error.h"
#include "sra/toolkit.h"

namespace staratlas {

PipelineRunner::PipelineRunner(const GenomeIndex& index,
                               const Annotation& annotation,
                               SraRepository& repository,
                               PipelineConfig config)
    : index_(&index),
      annotation_(&annotation),
      repository_(&repository),
      config_(std::move(config)),
      engine_(index, &annotation, config_.engine) {
  config_.early_stop.validate();
}

AccessionResult PipelineRunner::process(const std::string& accession) {
  AccessionResult result;
  result.accession = accession;

  // Stage 1: prefetch.
  const PrefetchResult fetched = prefetch(*repository_, accession);
  result.sra_bytes = fetched.bytes_transferred;
  result.library_type = fetched.metadata.library_type;

  // Stages 2+3 overlap: one engine worker at a time decodes the next
  // container batch (fasterq-dump) while the others align theirs, over
  // the engine's recycled batch slots — peak ingest memory is a few batch
  // arenas, never the whole decoded FASTQ. Batches are chunk_size reads,
  // so progress checkpoints (and the early-stop decision) cross the same
  // read-count boundaries as a ReadSet run. On an early stop the dump is
  // cut short too, so fastq_bytes reflects what was actually decoded (the
  // full sample on a completed run).
  FasterqDumpStream dump(fetched.container);
  result.total_reads = dump.metadata().num_reads;
  const usize batch_size = config_.engine.chunk_size;
  double dump_seconds = 0.0;
  const BatchSource source = [&](ReadBatch& batch) {
    const auto start = std::chrono::steady_clock::now();
    const usize appended = dump.next_batch(batch, batch_size);
    dump_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return appended > 0;
  };
  const AlignmentRun run =
      engine_.execute({.batches = source,
                       .total_reads_hint = dump.metadata().num_reads,
                       .early_stop = config_.early_stop,
                       .early_stop_out = &result.early_stop});
  result.dump_wall_seconds = dump_seconds;
  result.fastq_bytes = dump.fastq_bytes();
  result.align_wall_seconds = run.wall_seconds;
  result.stats = run.stats;
  result.gene_counts = run.gene_counts;

  // Stage 4 happens across samples (DESeq2 over the count matrix); here we
  // record acceptance: a completed run above the atlas threshold.
  result.accepted = !run.aborted &&
                    result.stats.mapped_rate() >=
                        config_.early_stop.min_mapped_rate;
  return result;
}

}  // namespace staratlas
