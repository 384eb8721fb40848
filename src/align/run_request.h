// EngineRunRequest: the single front door to the alignment engine.
//
// A request names one input — an in-memory ReadSet, a pull-based
// BatchSource, or raw FASTQ text — plus the shard fan-out, early stopping,
// callbacks and outputs. validate() checks every combination rule in ONE
// place, and AlignmentEngine::execute() runs the scatter/gather path when
// num_shards > 1 and the engine's single execution body otherwise.
//
// The multi-tenant service validates each submission as a ReadSet request
// at admission (same rules, same error text) and then executes it
// chunk-by-chunk through the engine's align_chunk hook: execute() is one
// blocking call and cannot be preempted between chunks, which is the
// service's whole job.
#pragma once

#include <iosfwd>
#include <optional>
#include <string_view>

#include "align/early_stopping.h"
#include "align/engine.h"

namespace staratlas {

struct ShardedRun;  // align/sharded.h

/// Every member has a default initializer, so a request built with
/// designated initializers names only what it sets:
/// `engine.execute({.reads = &reads, .callback = cb})`.
struct EngineRunRequest {
  // ---- input source: set exactly one --------------------------------
  /// In-memory read set, cut into chunk_size batches.
  const ReadSet* reads = nullptr;
  /// Pull-based source; its calls decide the batch boundaries.
  BatchSource batches{};
  /// Raw FASTQ bytes — an mmap'd file or decoded container — block-parsed
  /// into chunk_size batches, or scattered over shards. Set means present:
  /// empty text is a valid empty sample.
  std::optional<std::string_view> fastq_text{};

  /// Shard fan-out over fastq_text; sharded alignment runs exactly when
  /// this is > 1. Early stopping is rejected with shards (the gather layer
  /// has no abort protocol).
  usize num_shards = 1;
  /// Total read count when known: sizes the outcome vector and the
  /// default progress-checkpoint interval for `batches` and `fastq_text`
  /// inputs (a ReadSet knows its own size).
  u64 total_reads_hint = 0;

  /// Early stopping attached engine-side: the request owns the policy and
  /// execute() runs the controller, instead of every caller hand-wiring
  /// one. Disabled by default.
  EarlyStopPolicy early_stop{.enabled = false};
  /// Where execute() records the early-stop decision (optional; must
  /// outlive the call).
  EarlyStopDecision* early_stop_out = nullptr;

  /// User progress callback, invoked before the early-stop controller;
  /// an abort from either wins.
  ProgressCallback callback{};

  /// Where execute() deposits the full scatter/gather result for sharded
  /// runs (optional; the merged AlignmentRun is always returned).
  ShardedRun* sharded_out = nullptr;

  /// Where execute() writes SAM records (optional; no header — see
  /// write_sam_header in align/sam.h): every record of each processed
  /// read, in input order, written at the in-order batch commit. It holds
  /// exactly the stats.processed reads, for any thread or shard count,
  /// and nothing past an abort.
  std::ostream* sam_out = nullptr;

  /// The single validation point: exactly one source, shard/source and
  /// shard/early-stop compatibility, policy parameter ranges. Throws
  /// InvalidArgument.
  void validate() const;
};

}  // namespace staratlas
