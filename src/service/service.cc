#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "align/run_request.h"
#include "common/error.h"

namespace staratlas {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

/// One admitted sample's life inside the service: immutable inputs, the
/// chunk-merge accumulators, and the completion promise. Workers touch
/// the accumulators only under `mu`; `reads` is immutable after
/// construction so align_chunk reads it lock-free.
struct AlignmentService::Session {
  u64 id = 0;
  TenantId tenant;
  std::string name;
  ReadSet reads;
  /// Per-sample cache pin (cache mode): holds the entry resident for the
  /// sample's whole life, so eviction can never pull the index out from
  /// under an active alignment.
  std::shared_ptr<const GenomeIndex> pin;
  std::promise<SampleResult> promise;
  std::shared_future<SampleResult> future;
  std::chrono::steady_clock::time_point submitted;

  std::mutex mu;
  ChunkSink acc;  ///< engine-dimensioned accumulators (merged chunk sinks)
  std::vector<ReadOutcome> outcomes;
  usize chunks_done = 0;
  usize chunks_total = 0;
  bool first_dispatched = false;
  double queue_secs = 0.0;
};

AlignmentService::AlignmentService(std::shared_ptr<const GenomeIndex> index,
                                   const Annotation* annotation,
                                   ServiceConfig config)
    : config_(std::move(config)),
      index_(std::move(index)),
      engine_(std::make_unique<AlignmentEngine>(*index_, annotation,
                                                config_.engine)),
      admission_(config_.admission),
      scheduler_(config_.engine.chunk_size) {
  start_workers();
}

AlignmentService::AlignmentService(SharedIndexCache& cache,
                                   const std::string& index_key,
                                   const SharedIndexCache::Loader& loader,
                                   const Annotation* annotation,
                                   ServiceConfig config)
    : config_(std::move(config)),
      cache_(&cache),
      index_key_(index_key),
      loader_(loader),
      index_(cache.acquire(index_key, loader)),
      engine_(std::make_unique<AlignmentEngine>(*index_, annotation,
                                                config_.engine)),
      admission_(config_.admission),
      scheduler_(config_.engine.chunk_size) {
  start_workers();
}

AlignmentService::~AlignmentService() { drain(); }

void AlignmentService::start_workers() {
  for (const auto& [tenant, profile] : config_.tenants) {
    admission_.set_profile(tenant, profile);
    scheduler_.set_weight(tenant, profile.weight);
    registered_tenants_.insert(tenant);
  }
  const usize slots = engine_->prepare_worker_slots();
  workers_.reserve(slots);
  for (usize slot = 0; slot < slots; ++slot) {
    workers_.emplace_back([this, slot] { worker_loop(slot); });
  }
}

void AlignmentService::ensure_tenant(const TenantId& tenant) {
  {
    std::lock_guard lock(mu_);
    if (!registered_tenants_.insert(tenant).second) return;
  }
  admission_.set_profile(tenant, config_.default_profile);
  scheduler_.set_weight(tenant, config_.default_profile.weight);
}

AlignmentService::Ticket AlignmentService::submit(SampleSubmission submission) {
  const auto now = std::chrono::steady_clock::now();
  // Every submission is validated as a ReadSet run request at admission
  // (the same single validation point execute() uses), then executed
  // through the chunk hook for fair-share interleaving instead of
  // execute().
  EngineRunRequest{.reads = &submission.reads}.validate();
  ensure_tenant(submission.tenant);

  Ticket ticket;
  const u64 total_reads = submission.reads.size();
  ticket.status = admission_.try_admit(submission.tenant, total_reads);
  if (ticket.status != SubmitStatus::kAccepted) return ticket;

  auto session = std::make_unique<Session>();
  session->tenant = std::move(submission.tenant);
  session->name = std::move(submission.name);
  session->reads = std::move(submission.reads);
  session->submitted = now;
  session->future = session->promise.get_future().share();
  session->acc = engine_->make_chunk_sink();
  session->outcomes.assign(total_reads, ReadOutcome::kUnmapped);
  const usize chunk = config_.engine.chunk_size;
  session->chunks_total = (total_reads + chunk - 1) / chunk;
  // Every admitted sample re-acquires through the cache: a hit that adds
  // one more pin, keeping the entry unevictable while any sample runs.
  if (cache_) session->pin = cache_->acquire(index_key_, loader_);
  ticket.result = session->future;

  const TenantId tenant = session->tenant;
  u64 id = 0;
  {
    std::lock_guard lock(mu_);
    id = next_session_id_++;
    session->id = id;
    ++metrics_.tenants[tenant].accepted;
    sessions_.emplace(id, std::move(session));
  }

  if (total_reads == 0) {
    // Nothing to schedule: complete immediately (the scheduler's jobs are
    // >= 1 read by contract).
    finalize(take_session(id), /*rejected_at_drain=*/false);
    return ticket;
  }
  if (!scheduler_.enqueue(tenant, id, total_reads)) {
    // Lost the race with drain(): the scheduler closed after admission
    // said yes. Resolve as a clean drain rejection, like a queued sample.
    finalize(take_session(id), /*rejected_at_drain=*/true);
  }
  return ticket;
}

SampleResult AlignmentService::submit_and_wait(SampleSubmission submission) {
  Ticket ticket = submit(std::move(submission));
  if (ticket.status != SubmitStatus::kAccepted) {
    throw InvalidArgument(std::string("submission rejected: ") +
                          submit_status_name(ticket.status));
  }
  return ticket.result.get();
}

void AlignmentService::worker_loop(usize slot) {
  ChunkSink sink = engine_->make_chunk_sink();
  std::vector<ReadOutcome> scratch;
  while (auto dispatch = scheduler_.next_chunk()) {
    Session* session = nullptr;
    {
      std::lock_guard lock(mu_);
      auto it = sessions_.find(dispatch->job_id);
      STARATLAS_CHECK(it != sessions_.end());
      session = it->second.get();
    }
    if (dispatch->first_chunk) {
      std::lock_guard lock(session->mu);
      if (!session->first_dispatched) {
        session->first_dispatched = true;
        session->queue_secs = seconds_between(
            session->submitted, std::chrono::steady_clock::now());
      }
    }
    const usize count = dispatch->end - dispatch->begin;
    if (scratch.size() < count) scratch.resize(count);
    engine_->align_chunk(session->reads, dispatch->begin, dispatch->end, slot,
                         sink, std::span(scratch).first(count));
    bool last = false;
    {
      std::lock_guard lock(session->mu);
      session->acc.stats += sink.stats;
      session->acc.counts += sink.counts;
      if (session->acc.junctions) *session->acc.junctions += *sink.junctions;
      std::copy_n(scratch.begin(), count,
                  session->outcomes.begin() + dispatch->begin);
      last = ++session->chunks_done == session->chunks_total;
    }
    // The finalizing worker is the only one still referencing the
    // session once every chunk has merged, so it may take ownership.
    if (last) {
      finalize(take_session(dispatch->job_id), /*rejected_at_drain=*/false);
    }
  }
}

std::unique_ptr<AlignmentService::Session> AlignmentService::take_session(
    u64 id) {
  std::lock_guard lock(mu_);
  auto it = sessions_.find(id);
  STARATLAS_CHECK(it != sessions_.end());
  std::unique_ptr<Session> session = std::move(it->second);
  sessions_.erase(it);
  return session;
}

void AlignmentService::finalize(std::unique_ptr<Session> session,
                                bool rejected_at_drain) {
  SampleResult result;
  result.tenant = session->tenant;
  result.name = session->name;
  result.total_reads = session->reads.size();
  if (result.total_reads > 0) {
    u64 bases = 0;
    for (const auto& read : session->reads.reads) bases += read.sequence.size();
    result.mean_read_length =
        static_cast<double>(bases) / static_cast<double>(result.total_reads);
  }
  result.rejected_at_drain = rejected_at_drain;
  result.latency_secs = seconds_between(session->submitted,
                                        std::chrono::steady_clock::now());
  if (!rejected_at_drain) {
    result.stats = session->acc.stats;
    result.gene_counts = std::move(session->acc.counts);
    result.outcomes = std::move(session->outcomes);
    if (session->acc.junctions) {
      result.junctions = session->acc.junctions->junctions();
    }
    result.queue_secs = session->queue_secs;
  }

  {
    std::lock_guard lock(mu_);
    TenantMetrics& tm = metrics_.tenants[result.tenant];
    if (rejected_at_drain) {
      ++tm.rejected_at_drain;
    } else {
      ++tm.completed;
      tm.reads_completed += result.total_reads;
      tm.latencies.push_back(result.latency_secs);
      ++metrics_.samples_completed;
      metrics_.reads_completed += result.total_reads;
    }
  }
  // Metrics before release: an accept enabled by this release must then
  // observe the completion in metrics (the backpressure tests count on
  // accepted <= cap + samples_completed holding under any schedule).
  admission_.release(result.tenant, result.total_reads);
  session->promise.set_value(std::move(result));
}

void AlignmentService::drain() {
  std::lock_guard drain_lock(drain_mu_);
  if (drained_) return;
  admission_.begin_drain();
  // Queued-but-unstarted samples are handed back by the scheduler and
  // rejected cleanly; samples with any dispatched chunk run to completion.
  for (u64 id : scheduler_.cancel_unstarted()) {
    finalize(take_session(id), /*rejected_at_drain=*/true);
  }
  scheduler_.close();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  drained_ = true;
  std::lock_guard lock(mu_);
  STARATLAS_CHECK(sessions_.empty());
}

AlignmentService::Metrics AlignmentService::metrics() const {
  const AdmissionController::Depths depths = admission_.depths();
  Metrics out;
  {
    std::lock_guard lock(mu_);
    out = metrics_;
  }
  out.chunks_dispatched = scheduler_.chunks_dispatched();
  out.queue_depth_samples = depths.total_samples;
  out.queue_high_water = depths.total_sample_high_water;
  for (const auto& [tenant, depth] : depths.tenants) {
    TenantMetrics& tm = out.tenants[tenant];
    tm.rejected = depth.rejected;
    tm.queue_high_water = depth.sample_high_water;
  }
  if (cache_) {
    out.index_cache_loads = cache_->loads();
    out.index_cache_hits = cache_->hits();
  }
  return out;
}

}  // namespace staratlas
