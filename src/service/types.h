// Shared vocabulary of the multi-tenant alignment service: tenant
// identities and profiles, sample submissions, and per-sample results.
//
// A submission is a sample tagged with a tenant, in one of two forms:
// chunk_size-read ReadBatches, which the RPC layer (service/rpc.h) parses
// straight off the socket, or an in-memory ReadSet, which the in-process
// API (service/service.h) cuts into the same batches at submit() and then
// drops. Either way the service holds each read once, in a batch arena.
// Results carry everything the CLI align path writes — outcomes, stats,
// gene counts, junctions — so byte-identity against the CLI align path
// is a string comparison of the rendered artifacts.
#pragma once

#include <string>
#include <vector>

#include "align/gene_counts.h"
#include "align/junctions.h"
#include "align/record.h"
#include "common/types.h"
#include "io/fastq.h"
#include "io/read_batch.h"

namespace staratlas {

using TenantId = std::string;

/// Per-tenant scheduling and admission knobs. Unknown tenants get the
/// service's default profile on first submission.
struct TenantProfile {
  /// Fair-share weight: a tenant with weight 2 receives twice the engine
  /// share of a weight-1 tenant while both are backlogged.
  double weight = 1.0;
  /// Admission cap: queued + in-flight samples for this tenant.
  usize max_queued_samples = 64;
  /// Admission cap: queued + in-flight reads for this tenant.
  u64 max_queued_reads = 4u << 20;
};

/// Why a submission was (not) admitted.
enum class SubmitStatus : u8 {
  kAccepted = 0,
  kTenantQueueFull,  ///< per-tenant sample or read cap reached
  kGlobalQueueFull,  ///< service-wide sample or read cap reached
  kDraining,         ///< service is draining / shut down
};

const char* submit_status_name(SubmitStatus status);

/// Set `reads` or `batches`, not both (submit() throws InvalidArgument).
struct SampleSubmission {
  TenantId tenant;
  std::string name;
  /// In-process form: cut into chunk_size batches at submit().
  ReadSet reads;
  /// Pre-cut form: every batch holds exactly the service's chunk_size
  /// reads except the last, which holds 1 to chunk_size. The service
  /// holds them as given (trim them with ReadBatch::shrink_to_fit).
  std::vector<ReadBatch> batches;
};

/// Completed (or drain-rejected) sample. The accumulators merge the
/// chunk-granular sinks field-wise, so stats/counts/junctions — and the
/// per-read outcomes — are identical to an AlignmentEngine::execute over
/// the same reads.
struct SampleResult {
  TenantId tenant;
  std::string name;
  u64 total_reads = 0;
  double mean_read_length = 0.0;
  MappingStats stats;
  GeneCountsTable gene_counts;  ///< empty when quant is off
  std::vector<ReadOutcome> outcomes;
  std::vector<Junction> junctions;  ///< empty unless collecting
  double queue_secs = 0.0;    ///< submit -> first chunk dispatched
  double latency_secs = 0.0;  ///< submit -> completion
  /// True when the sample was still queued at drain time: the service
  /// rejected it cleanly instead of aligning it (its accumulators above
  /// are empty).
  bool rejected_at_drain = false;
};

}  // namespace staratlas
