#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.h"

namespace staratlas {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The submission's reads as one batch per `chunk`-read scheduler chunk.
/// A ReadSet is cut here, each batch trimmed to its contents, and freed.
std::vector<ReadBatch> take_batches(SampleSubmission& submission,
                                    usize chunk) {
  std::vector<ReadBatch> batches;
  if (!submission.reads.empty()) {
    if (!submission.batches.empty()) {
      throw InvalidArgument("sample submission sets both reads and batches");
    }
    batches.reserve((submission.reads.size() + chunk - 1) / chunk);
    for (usize next = 0; next < submission.reads.size();) {
      ReadBatch& batch = batches.emplace_back();
      next = append_read_batch(submission.reads, next, chunk, batch);
      batch.shrink_to_fit();
    }
    submission.reads = ReadSet{};
    return batches;
  }
  batches = std::move(submission.batches);
  for (usize i = 0; i < batches.size(); ++i) {
    const usize n = batches[i].size();
    if (n == 0 || n > chunk || (i + 1 < batches.size() && n != chunk)) {
      throw InvalidArgument(
          "sample batches must hold chunk_size reads each (the last 1 to "
          "chunk_size)");
    }
  }
  return batches;
}

}  // namespace

/// One admitted sample's life inside the service: immutable inputs, the
/// chunk-merge accumulators, and the completion promise. Workers touch
/// the accumulators only under `mu`; `batches` is immutable until
/// finalize, so align_chunk reads it lock-free.
struct AlignmentService::Session {
  u64 id = 0;
  TenantId tenant;
  std::string name;
  /// Batch i holds the reads of the scheduler chunk starting at read
  /// i * chunk_size.
  std::vector<ReadBatch> batches;
  u64 total_reads = 0;
  u64 total_bases = 0;
  u64 read_bytes = 0;  ///< sum of the batches' capacity_bytes()
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
  std::vector<ReadBatch> batches =
      take_batches(submission, config_.engine.chunk_size);
  ensure_tenant(submission.tenant);

  u64 total_reads = 0;
  u64 total_bases = 0;
  u64 read_bytes = 0;
  for (const ReadBatch& batch : batches) {
    total_reads += batch.size();
    read_bytes += batch.capacity_bytes();
    for (usize r = 0; r < batch.size(); ++r) {
      total_bases += batch.sequence(r).size();
    }
  }
  Ticket ticket;
  ticket.status = admission_.try_admit(submission.tenant, total_reads);
  if (ticket.status != SubmitStatus::kAccepted) return ticket;

  auto session = std::make_unique<Session>();
  session->tenant = std::move(submission.tenant);
  session->name = std::move(submission.name);
  session->batches = std::move(batches);
  session->total_reads = total_reads;
  session->total_bases = total_bases;
  session->read_bytes = read_bytes;
  session->submitted = now;
  session->future = session->promise.get_future().share();
  session->acc = engine_->make_chunk_sink();
  session->outcomes.assign(total_reads, ReadOutcome::kUnmapped);
  session->chunks_total = session->batches.size();
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
    metrics_.resident_read_bytes += read_bytes;
    metrics_.resident_read_bytes_high_water =
        std::max(metrics_.resident_read_bytes_high_water,
                 metrics_.resident_read_bytes);
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
    const ReadBatch& batch =
        session->batches[dispatch->begin / config_.engine.chunk_size];
    STARATLAS_CHECK(batch.size() == count);
    if (scratch.size() < count) scratch.resize(count);
    engine_->align_chunk(batch, slot, sink, std::span(scratch).first(count));
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
  result.total_reads = session->total_reads;
  if (result.total_reads > 0) {
    result.mean_read_length = static_cast<double>(session->total_bases) /
                              static_cast<double>(result.total_reads);
  }
  // The reads go before the promise resolves: a caller that wakes on the
  // result finds the sample's memory already returned.
  session->batches = std::vector<ReadBatch>();
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
    metrics_.resident_read_bytes -= session->read_bytes;
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
