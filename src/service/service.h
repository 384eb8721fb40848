// AlignmentService: a long-running multi-tenant alignment daemon over one
// shared engine pool and one shared, mmap-attachable genome index.
//
// This is the refactor that turns core/pipeline + align/engine from a
// batch job into a system: submissions from many tenants pass admission
// control (bounded queues, reject-don't-block backpressure), are held as
// one chunk_size-read ReadBatch per work unit (the RPC server parses its
// payloads straight into them; an in-process ReadSet is cut into them at
// submit), and are scheduled weighted-fair across tenants onto a pool of
// worker threads that all call the engine's align_chunk hook on one
// batch at a time. Every tenant attaches the SAME index — acquired once
// per sample through the single-flight SharedIndexCache, whose pinned
// entries (shared_ptr refcounts) make resident-bytes eviction safe under
// load: an index held by an active sample is never evicted, everything
// else yields when the budget demands it.
//
// Determinism: per-sample results (outcomes, stats, gene counts,
// junctions) are byte-identical to AlignmentEngine::execute on the same
// reads, whatever the worker count or cross-tenant interleaving — chunk
// results are read-indexed and the accumulator merges are field-wise
// sums, the same argument that makes execute()'s commit deterministic.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "align/engine.h"
#include "index/shared_cache.h"
#include "service/admission.h"
#include "service/scheduler.h"
#include "service/types.h"

namespace staratlas {

struct ServiceConfig {
  /// Engine configuration; num_threads is the worker-pool width and
  /// chunk_size the scheduling quantum in reads (the preemption
  /// granularity).
  EngineConfig engine;
  /// Service-wide admission caps.
  AdmissionLimits admission;
  /// Profile applied to tenants with no explicit entry.
  TenantProfile default_profile;
  /// Explicit per-tenant profiles (weight + admission caps).
  std::map<TenantId, TenantProfile> tenants;
};

class AlignmentService {
 public:
  /// A submission's handle. `result` is valid only when status is
  /// kAccepted; it also resolves (with rejected_at_drain set) for samples
  /// the drain path rejects after admission.
  struct Ticket {
    SubmitStatus status = SubmitStatus::kAccepted;
    std::shared_future<SampleResult> result;
  };

  /// Per-tenant service metrics.
  struct TenantMetrics {
    u64 accepted = 0;
    u64 rejected = 0;
    u64 completed = 0;
    u64 rejected_at_drain = 0;
    u64 reads_completed = 0;
    usize queue_high_water = 0;
    /// Submit-to-completion seconds of every completed sample, in
    /// completion order (p50/p99 are percentile() over this).
    std::vector<double> latencies;
  };
  struct Metrics {
    std::map<TenantId, TenantMetrics> tenants;
    u64 chunks_dispatched = 0;
    u64 samples_completed = 0;
    u64 reads_completed = 0;
    usize queue_depth_samples = 0;  ///< queued + in-flight right now
    usize queue_high_water = 0;
    u64 index_cache_loads = 0;  ///< 0 when constructed without a cache
    u64 index_cache_hits = 0;
    /// Sum of ReadBatch::capacity_bytes() over the admitted samples not
    /// yet finalized: the reads the service holds right now.
    u64 resident_read_bytes = 0;
    u64 resident_read_bytes_high_water = 0;
  };

  /// Serves `index` directly (tests; no cache involved).
  AlignmentService(std::shared_ptr<const GenomeIndex> index,
                   const Annotation* annotation, ServiceConfig config);

  /// Attaches the index through `cache` (single-flight; the service holds
  /// one pin for its lifetime and every admitted sample holds another
  /// while active, so the entry cannot be evicted under load). The cache
  /// must outlive the service.
  AlignmentService(SharedIndexCache& cache, const std::string& index_key,
                   const SharedIndexCache::Loader& loader,
                   const Annotation* annotation, ServiceConfig config);

  /// Drains and joins the workers.
  ~AlignmentService();

  AlignmentService(const AlignmentService&) = delete;
  AlignmentService& operator=(const AlignmentService&) = delete;

  /// Admission-controlled, non-blocking submission. Rejection (queue full,
  /// draining) returns immediately with the reason — backpressure is the
  /// caller's signal to slow down, not a blocked thread. Throws
  /// InvalidArgument when the submission sets both reads and batches, or
  /// its batches are not cut at the engine's chunk_size.
  Ticket submit(SampleSubmission submission);

  /// Submits and blocks for the result; throws InvalidArgument when the
  /// submission is rejected at admission.
  SampleResult submit_and_wait(SampleSubmission submission);

  /// Graceful drain: stops admission, cleanly rejects every sample that
  /// has not started (their futures resolve with rejected_at_drain), lets
  /// in-flight samples complete, and joins the workers. Idempotent.
  void drain();

  bool draining() const { return admission_.draining(); }
  const ServiceConfig& config() const { return config_; }
  const GenomeIndex& index() const { return *index_; }
  Metrics metrics() const;

 private:
  struct Session;

  void start_workers();
  void ensure_tenant(const TenantId& tenant);
  void worker_loop(usize slot);
  /// Resolves the session's future, returns admission capacity and
  /// records metrics. Called with no service locks held.
  void finalize(std::unique_ptr<Session> session, bool rejected_at_drain);
  std::unique_ptr<Session> take_session(u64 id);

  ServiceConfig config_;
  SharedIndexCache* cache_ = nullptr;  ///< null when index passed directly
  std::string index_key_;
  SharedIndexCache::Loader loader_;  ///< per-sample re-acquire (cache mode)
  std::shared_ptr<const GenomeIndex> index_;  ///< the service's own pin
  std::unique_ptr<AlignmentEngine> engine_;
  AdmissionController admission_;
  FairShareScheduler scheduler_;

  mutable std::mutex mu_;  ///< sessions map + metrics + tenant registry
  std::map<u64, std::unique_ptr<Session>> sessions_;
  std::set<TenantId> registered_tenants_;
  u64 next_session_id_ = 1;
  Metrics metrics_;

  std::mutex drain_mu_;  ///< serializes drain(); never nests inside mu_
  bool drained_ = false;  ///< guarded by drain_mu_

  std::vector<std::thread> workers_;
};

}  // namespace staratlas
