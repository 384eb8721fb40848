// EngineRunRequest: the single front door to the alignment engine.
//
// A request names one input — an in-memory ReadSet or a pull-based
// BatchSource — plus early stopping, callbacks and outputs. validate()
// checks every combination rule in ONE place, and
// AlignmentEngine::execute() runs the engine's single execution body over
// it. A caller with FASTQ bytes wraps a FastqBlockReader in `batches`
// (io/fastq_block.h), as the CLI does.
//
// The multi-tenant service does not go through execute(): it holds each
// sample as chunk_size ReadBatches (a ReadSet cut with the same
// append_read_batch as the `reads` input here) and aligns them one at a
// time through the engine's align_chunk hook. execute() is one blocking
// call and cannot be preempted between chunks, which is the service's
// whole job.
#pragma once

#include <iosfwd>

#include "align/early_stopping.h"
#include "align/engine.h"

namespace staratlas {

/// Every member has a default initializer, so a request built with
/// designated initializers names only what it sets:
/// `engine.execute({.reads = &reads, .callback = cb})`.
struct EngineRunRequest {
  // ---- input source: set exactly one --------------------------------
  /// In-memory read set, cut into chunk_size batches.
  const ReadSet* reads = nullptr;
  /// Pull-based source; its calls decide the batch boundaries.
  BatchSource batches{};

  /// Total read count when known: sizes the outcome vector and the
  /// default progress-checkpoint interval for `batches` inputs (a ReadSet
  /// knows its own size).
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

  /// Where execute() writes SAM records (optional; no header — see
  /// write_sam_header in align/sam.h): every record of each processed
  /// read, in input order, written at the in-order batch commit. It holds
  /// exactly the stats.processed reads, for any thread count, and nothing
  /// past an abort.
  std::ostream* sam_out = nullptr;

  /// The single validation point: exactly one source and the early-stop
  /// policy's parameter ranges. Throws InvalidArgument.
  void validate() const;
};

}  // namespace staratlas
