#include "align/run_request.h"

#include <optional>

#include "common/error.h"

namespace staratlas {

void EngineRunRequest::validate() const {
  const int sources = (reads != nullptr ? 1 : 0) + (batches ? 1 : 0);
  if (sources == 0) {
    throw InvalidArgument("run request has no input: set reads or batches");
  }
  if (sources > 1) {
    throw InvalidArgument(
        "run request has multiple inputs: set exactly one of reads, "
        "batches");
  }
  if (early_stop.enabled) early_stop.validate();
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
  if (request.batches) {
    run = run_pull(request.batches, request.total_reads_hint, callback,
                   request.sam_out);
  } else {
    const ReadSet& reads = *request.reads;
    usize next = 0;
    const usize batch_size = config_.chunk_size;
    const BatchSource source = [&reads, &next, batch_size](ReadBatch& batch) {
      next = append_read_batch(reads, next, batch_size, batch);
      return !batch.empty();
    };
    run = run_pull(source, reads.size(), callback, request.sam_out);
  }
  if (request.early_stop_out != nullptr) {
    *request.early_stop_out = controller.has_value() ? controller->decision()
                                                     : EarlyStopDecision{};
  }
  return run;
}

}  // namespace staratlas
