// Scatter/gather vs single-instance economics in the event sim — the
// follow-up paper's question ("Serverless Approach to Running
// Resource-Intensive STAR Aligner"): at what sample size does splitting
// one sample across many FaaS workers beat one big r6a instance on cost
// and on latency?
//
// Scatter/gather model: N function workers cold-start, attach the
// pre-staged v3 index from a shared filesystem (mmap attach + first-touch
// page streaming — no per-worker S3 download, as the service's
// SharedIndexCache attaches it), align an equal byte slice, then one
// gather function merges the shard outputs (a field-wise sum of stats,
// gene counts and junctions, cheap and linear in sample size). Billing is per-millisecond per
// provisioned GB (cloud/faas). The single-instance model is the paper's
// classic path: boot, download + load the index from S3, align, hourly
// per-second billing (cloud/cost).
#pragma once

#include <vector>

#include "cloud/faas.h"
#include "cloud/instance_types.h"
#include "core/cloud_context.h"
#include "core/stage_model.h"

namespace staratlas {

struct ScatterGatherQuery {
  /// Index size / release / stage model — shared with rightsizing and
  /// the campaign planner (load path is moot: FaaS workers always mmap).
  CloudContext cloud{};
  ByteSize sample_fastq;
  usize num_workers = 32;
  FaasClass worker;
  /// Fraction of index pages a worker faults in from the shared FS while
  /// aligning its slice (suffix-array walks touch hot regions, not the
  /// whole file; the full download the single instance pays is avoided).
  double index_touch_fraction = 0.3;
  /// Gather function: download shard outputs + merge, per sample GiB.
  double gather_secs_per_gib = 3.0;
  /// Engine working set a worker needs beyond the evictable mmap'd index
  /// pages (streaming ingest is queue-bounded, not sample-bounded).
  ByteSize worker_headroom = ByteSize::from_gib(2.0);
};

struct ScatterGatherResult {
  bool feasible = false;  ///< worker memory >= engine working-set headroom
  usize workers = 0;
  VirtualDuration cold_start;  ///< per worker
  VirtualDuration attach;      ///< index mmap attach + first-touch paging
  VirtualDuration worker_align;
  VirtualDuration gather;
  VirtualDuration makespan;  ///< invoke -> gather complete (event sim)
  double cost_usd = 0.0;     ///< N worker invocations + gather invocation
  u64 sim_events = 0;
};

ScatterGatherResult simulate_scatter_gather(const ScatterGatherQuery& query);

struct SingleInstanceQuery {
  /// Index size / release / load path / stage model — shared with
  /// rightsizing and the campaign planner.
  CloudContext cloud{};
  ByteSize sample_fastq;
  InstanceType instance;
  double boot_seconds = 45.0;  ///< EC2 launch to usable
  bool spot = false;
};

struct SingleInstanceResult {
  bool feasible = false;  ///< memory >= required_memory(index)
  VirtualDuration boot_and_init;
  VirtualDuration makespan;
  double cost_usd = 0.0;  ///< per-second instance billing over makespan
};

SingleInstanceResult simulate_single_instance(const SingleInstanceQuery& query);

}  // namespace staratlas
