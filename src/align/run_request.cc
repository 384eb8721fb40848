#include "align/run_request.h"

#include <algorithm>
#include <optional>

#include "align/sharded.h"
#include "common/error.h"
#include "io/fastq_block.h"

namespace staratlas {

void EngineRunRequest::validate() const {
  const int sources = (reads != nullptr ? 1 : 0) + (batches ? 1 : 0) +
                      (fastq_text.has_value() ? 1 : 0);
  if (sources == 0) {
    throw InvalidArgument(
        "run request has no input: set reads, batches, or fastq_text");
  }
  if (sources > 1) {
    throw InvalidArgument(
        "run request has multiple inputs: set exactly one of reads, "
        "batches, fastq_text");
  }
  if (num_shards < 1) {
    throw InvalidArgument("run request needs num_shards >= 1");
  }
  const bool sharded = num_shards > 1;
  if (sharded && !fastq_text.has_value()) {
    throw InvalidArgument(
        "num_shards > 1 requires fastq_text (raw FASTQ bytes)");
  }
  if (early_stop.enabled) {
    early_stop.validate();
    if (sharded) {
      // The scatter/gather layer has no cross-shard abort protocol.
      throw InvalidArgument(
          "early stopping cannot be combined with sharded alignment");
    }
  }
  if (sharded_out != nullptr && !sharded) {
    throw InvalidArgument("sharded_out is only produced when num_shards > 1");
  }
}

AlignmentRun AlignmentEngine::execute(const EngineRunRequest& request) {
  request.validate();

  // Chain the caller's callback with the engine-owned early-stop
  // controller; the user callback sees every snapshot first and an abort
  // from either side wins.
  std::optional<EarlyStopController> controller;
  ProgressCallback callback = request.callback;
  if (request.early_stop.enabled) {
    controller.emplace(request.early_stop);
    const ProgressCallback user = request.callback;
    const ProgressCallback stop_cb = controller->callback();
    callback = [user, stop_cb](const ProgressSnapshot& snapshot) {
      EngineCommand command = EngineCommand::kContinue;
      if (user && user(snapshot) == EngineCommand::kAbort) {
        command = EngineCommand::kAbort;
      }
      if (stop_cb(snapshot) == EngineCommand::kAbort) {
        command = EngineCommand::kAbort;
      }
      return command;
    };
  }

  AlignmentRun run;
  if (request.num_shards > 1) {
    ShardedConfig sharded_config;
    sharded_config.engine = config_;
    sharded_config.num_shards = request.num_shards;
    ShardedRun sharded = align_sharded(*request.fastq_text, *index_,
                                       annotation_, sharded_config,
                                       request.sam_out);
    run = std::move(sharded.merged);
    if (request.sharded_out != nullptr) {
      // The merged result is execute()'s return value; sharded_out
      // receives the plan and per-shard runs (merged left empty).
      sharded.merged = AlignmentRun{};
      *request.sharded_out = std::move(sharded);
    }
  } else if (request.batches) {
    run = run_pull(request.batches, request.total_reads_hint, callback,
                   request.sam_out);
  } else if (request.reads != nullptr) {
    const ReadSet& reads = *request.reads;
    usize next = 0;
    const usize batch_size = config_.chunk_size;
    const BatchSource source = [&reads, &next, batch_size](ReadBatch& batch) {
      const usize end = std::min(next + batch_size, reads.size());
      for (; next < end; ++next) {
        const FastqRecord& rec = reads.reads[next];
        batch.append(rec.name, rec.sequence, rec.quality);
      }
      return !batch.empty();
    };
    run = run_pull(source, reads.size(), callback, request.sam_out);
  } else {
    FastqBlockReader reader(*request.fastq_text);
    const usize batch_size = config_.chunk_size;
    const BatchSource source = [&reader, batch_size](ReadBatch& batch) {
      return reader.read_batch(batch, batch_size) > 0;
    };
    run = run_pull(source, request.total_reads_hint, callback,
                   request.sam_out);
  }
  if (request.early_stop_out != nullptr) {
    *request.early_stop_out = controller.has_value() ? controller->decision()
                                                     : EarlyStopDecision{};
  }
  return run;
}

}  // namespace staratlas
