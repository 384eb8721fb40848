// Early stopping for STAR alignment (paper §III.B).
//
// STAR reports the running mapped-read percentage in Log.progress.out.
// The paper's analysis of 1000 runs showed that once 10% of reads are
// processed the final mapping rate is already predictable, so alignments
// whose rate is below the atlas acceptance threshold (30%) can be aborted,
// saving ~19.5% of total STAR compute. The controller below implements
// that rule against our engine's progress stream. (The policy struct and
// pure decision rule live in align/early_stop_policy.h.)
#pragma once

#include "align/early_stop_policy.h"
#include "align/engine.h"
#include "common/types.h"

namespace staratlas {

struct EarlyStopDecision {
  bool evaluated = false;     ///< checkpoint reached
  bool stopped = false;       ///< alignment aborted
  double observed_rate = 0.0; ///< mapped rate at the checkpoint
  double at_fraction = 0.0;   ///< actual fraction processed at decision
  u64 at_reads = 0;
};

/// Attaches the paper's rule to an AlignmentEngine progress stream.
/// One-shot: evaluates at the first snapshot at/after the checkpoint.
class EarlyStopController {
 public:
  explicit EarlyStopController(const EarlyStopPolicy& policy);

  /// The callback to pass as EngineRunRequest::callback. The controller
  /// must outlive the run.
  ProgressCallback callback();

  const EarlyStopDecision& decision() const { return decision_; }

 private:
  EarlyStopPolicy policy_;
  EarlyStopDecision decision_;
};

}  // namespace staratlas
