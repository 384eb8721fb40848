// sra-tools stand-ins: `prefetch` (repository -> local container) and
// `fasterq-dump` (container -> FASTQ ReadSet). Both do the real data work;
// the time each stage takes on cloud hardware is modeled separately by the
// pipeline's StageTimeModel (src/core), parameterized by the byte/read
// counts these tools report.
#pragma once

#include <functional>

#include "common/types.h"
#include "common/units.h"
#include "io/fastq.h"
#include "sra/container.h"
#include "sra/repository.h"

namespace staratlas {

struct PrefetchResult {
  std::vector<u8> container;  ///< the downloaded .sra bytes
  ByteSize bytes_transferred;
  SraMetadata metadata;
};

/// Simulates `prefetch <accession>`: materializes and "downloads" the
/// container from the repository.
PrefetchResult prefetch(SraRepository& repository,
                        const std::string& accession);

/// Bounded exponential backoff for flaky downloads (sra-tools' prefetch
/// retries transient NCBI failures the same way).
struct PrefetchRetryPolicy {
  u32 max_attempts = 4;
  double backoff_base_secs = 1.0;
  double backoff_multiplier = 2.0;

  /// Delay before the retry after `failed_attempts` (>= 1) failures.
  double backoff_secs(u32 failed_attempts) const;
};

struct PrefetchOutcome {
  PrefetchResult result;
  u32 attempts = 1;          ///< tries used, including the successful one
  double backoff_secs = 0.0; ///< total backoff the caller owes (simulated)
};

/// `prefetch` with bounded retry-with-backoff. `fail_attempt(attempt)`
/// (1-based) reports whether that try hits a transient transfer fault —
/// bind a FaultInjector, a flaky-network stub, or a test lambda; pass
/// nullptr for the never-failing default. Throws IoError when all
/// attempts fail.
PrefetchOutcome prefetch_with_retry(
    SraRepository& repository, const std::string& accession,
    const std::function<bool(u32 attempt)>& fail_attempt,
    const PrefetchRetryPolicy& policy = {});

struct DumpResult {
  ReadSet reads;
  SraMetadata metadata;
  ByteSize fastq_bytes;  ///< size of the decoded FASTQ representation
};

/// Simulates `fasterq-dump`: decodes a container into FASTQ reads.
DumpResult fasterq_dump(const std::vector<u8>& container);

/// Streaming form of fasterq-dump: yields batches of decoded reads on
/// demand so the pipeline can overlap the dump stage with alignment
/// (an AlignmentEngine::execute over a BatchSource) instead of
/// materializing the whole ReadSet first. Borrows the container; it must
/// outlive the stream.
class FasterqDumpStream {
 public:
  explicit FasterqDumpStream(const std::vector<u8>& container)
      : decoder_(container) {}

  const SraMetadata& metadata() const { return decoder_.metadata(); }

  /// Decodes up to `max_reads` records into `batch` (appended). Returns
  /// the count appended; 0 means the container is fully decoded and the
  /// total-bases invariant has been verified.
  usize next_batch(ReadBatch& batch, usize max_reads) {
    return decoder_.next_batch(batch, max_reads);
  }

  u64 records_dumped() const { return decoder_.records_decoded(); }

  /// FASTQ-serialized size of everything dumped so far.
  ByteSize fastq_bytes() const { return ByteSize(decoder_.serialized_bytes()); }

 private:
  SraStreamDecoder decoder_;
};

}  // namespace staratlas
