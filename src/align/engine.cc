#include "align/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "align/sam.h"
#include "common/alloc_counter.h"
#include "common/bounded_queue.h"
#include "common/error.h"

namespace staratlas {

/// One recycled unit of work: a batch arena plus everything a worker
/// accumulates for it, kept per-slot so the committer can merge batches in
/// stream order.
struct AlignmentEngine::StreamSlot {
  ReadBatch batch;
  std::vector<ReadOutcome> outcomes;  ///< batch-local, index-aligned
  ChunkSink sink;
  std::string sam;  ///< the batch's SAM records, when the run writes SAM
  u64 seq = 0;         ///< batch sequence number in stream order
  u64 first_read = 0;  ///< global index of the batch's first read
};

AlignmentEngine::AlignmentEngine(const GenomeIndex& index,
                                 const Annotation* annotation,
                                 EngineConfig config)
    : index_(&index), annotation_(annotation), config_(std::move(config)) {
  STARATLAS_CHECK(config_.num_threads >= 1);
  STARATLAS_CHECK(config_.chunk_size >= 1);
  if (config_.quant_gene_counts) {
    STARATLAS_CHECK(annotation_ != nullptr);
    counter_ = std::make_unique<GeneCounter>(*annotation_, *index_);
  }
}

AlignmentEngine::~AlignmentEngine() = default;

void AlignmentEngine::ensure_workers() {
  prepare_worker_slots();
  if (config_.num_threads > 1 && !pool_) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
}

void AlignmentEngine::ensure_stream_slots(usize count) {
  while (stream_slots_.size() < count) {
    auto slot = std::make_unique<StreamSlot>();
    slot->sink = make_chunk_sink();
    stream_slots_.push_back(std::move(slot));
  }
}

namespace {
/// Points the workspace's batch lanes at the sequences of `batch`.
void stage_views(const ReadBatch& batch, AlignWorkspace& ws) {
  ws.batch.views.clear();
  for (usize r = 0; r < batch.size(); ++r) {
    ws.batch.views.push_back(batch.sequence(r));
  }
}

/// Zeroes a counts table in place, keeping per_gene capacity.
void reset_counts(GeneCountsTable& counts) {
  std::fill(counts.per_gene.begin(), counts.per_gene.end(), u64{0});
  counts.n_unmapped = 0;
  counts.n_multimapping = 0;
  counts.n_no_feature = 0;
  counts.n_ambiguous = 0;
}
}  // namespace

usize AlignmentEngine::prepare_worker_slots() {
  // Workspaces only — the external scheduler brings its own threads, so
  // spinning up the internal pool here would double the thread count.
  while (workspaces_.size() < config_.num_threads) {
    workspaces_.push_back(std::make_unique<AlignWorkspace>());
  }
  return config_.num_threads;
}

ChunkSink AlignmentEngine::make_chunk_sink() const {
  ChunkSink sink;
  if (counter_) sink.counts = GeneCountsTable(annotation_->num_genes());
  if (config_.collect_junctions) {
    sink.junctions = std::make_unique<JunctionCollector>(
        *index_, config_.junction_min_intron);
  }
  return sink;
}

void AlignmentEngine::align_views(AlignWorkspace& ws, ChunkSink& sink,
                                  std::span<ReadOutcome> outcomes) const {
  sink.stats = MappingStats{};
  if (counter_) reset_counts(sink.counts);
  if (sink.junctions) sink.junctions->clear();

  AlignBatchLanes& lanes = ws.batch;
  const usize count = lanes.views.size();
  if (lanes.results.size() < count) lanes.results.resize(count);
  const Aligner aligner(*index_, config_.params);
  aligner.align_batch(lanes.views, ws, sink.stats,
                      std::span(lanes.results).first(count));
  for (usize r = 0; r < count; ++r) {
    const ReadAlignment& result = lanes.results[r];
    sink.stats.add_outcome(result.outcome);
    outcomes[r] = result.outcome;
    if (counter_) counter_->count(result, sink.counts);
    if (sink.junctions) sink.junctions->add(result);
  }
}

void AlignmentEngine::align_chunk(const ReadBatch& batch, usize slot,
                                  ChunkSink& sink,
                                  std::span<ReadOutcome> outcomes) const {
  STARATLAS_CHECK(slot < workspaces_.size());
  STARATLAS_CHECK(outcomes.size() >= batch.size());
  AlignWorkspace& ws = *workspaces_[slot];
  stage_views(batch, ws);
  align_views(ws, sink, outcomes);
}

AlignmentRun AlignmentEngine::run_pull(const BatchSource& source,
                                       u64 total_reads_hint,
                                       const ProgressCallback& callback,
                                       std::ostream* sam_out) {
  STARATLAS_CHECK(source != nullptr);
  const auto wall_start = std::chrono::steady_clock::now();
  AlignmentRun run;
  run.outcomes.assign(total_reads_hint, ReadOutcome::kUnmapped);
  if (counter_) run.gene_counts = GeneCountsTable(annotation_->num_genes());

  ensure_workers();
  const usize nslots = config_.num_threads + 2;
  ensure_stream_slots(nslots);

  const u64 check_interval =
      config_.progress_check_interval
          ? config_.progress_check_interval
          : std::max<u64>(1, total_reads_hint / 50);

  JunctionCollector merged_junctions(*index_, config_.junction_min_intron);
  ProgressTracker tracker(total_reads_hint);

  // Slot recycling ring. It holds at most nslots entries, so pushes never
  // block; a worker blocks in pop() only when every slot is in flight —
  // that wait IS the peak-memory bound.
  BoundedQueue<StreamSlot*> free_q(nslots);
  for (usize i = 0; i < nslots; ++i) free_q.push(stream_slots_[i].get());

  std::atomic<usize> next_worker_slot{0};
  std::atomic<bool> abort_flag{false};
  std::atomic<u64> consumer_allocs{0};

  // Source state, all guarded by source_mu: batch sequence numbers are
  // handed out in the order the source produces batches.
  std::mutex source_mu;
  u64 next_seq = 0;
  u64 next_first_read = 0;
  bool exhausted = false;
  std::exception_ptr source_error;

  // In-order commit state, all guarded by commit_mu. Workers align batches
  // in any order, then park them in the reorder ring; the ring drains
  // strictly in sequence, so merges, checkpoints and the abort decision
  // happen at deterministic read counts whatever the thread count.
  std::mutex commit_mu;
  std::vector<StreamSlot*> reorder(nslots, nullptr);
  u64 commit_next = 0;
  u64 next_check = check_interval;
  std::exception_ptr worker_error;

  auto elapsed_secs = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
  };

  // The next batch in a free slot, or null once the stream has ended or
  // the run was aborted. Every slot returned here is committed exactly
  // once, which keeps the reorder ring gap-free.
  auto pull = [&]() -> StreamSlot* {
    std::lock_guard lock(source_mu);
    if (exhausted || abort_flag.load(std::memory_order_relaxed)) {
      return nullptr;
    }
    StreamSlot* slot = *free_q.pop();
    slot->batch.clear();
    bool got = false;
    try {
      got = source(slot->batch) && !slot->batch.empty();
    } catch (...) {
      source_error = std::current_exception();
      abort_flag.store(true, std::memory_order_relaxed);
    }
    if (!got) {
      exhausted = true;
      free_q.push(slot);
      return nullptr;
    }
    slot->seq = next_seq++;
    slot->first_read = next_first_read;
    next_first_read += slot->batch.size();
    return slot;
  };

  auto commit = [&](StreamSlot* done) {
    std::lock_guard lock(commit_mu);
    reorder[done->seq % nslots] = done;
    while (StreamSlot* slot = reorder[commit_next % nslots]) {
      reorder[commit_next % nslots] = nullptr;
      ++commit_next;
      if (!abort_flag.load(std::memory_order_relaxed)) {
        const usize n = slot->batch.size();
        if (run.outcomes.size() < slot->first_read + n) {
          run.outcomes.resize(slot->first_read + n, ReadOutcome::kUnmapped);
        }
        std::copy_n(slot->outcomes.begin(), n,
                    run.outcomes.begin() + slot->first_read);
        const ChunkSink& sink = slot->sink;
        run.stats += sink.stats;
        tracker.add(sink.stats);
        if (counter_) run.gene_counts += sink.counts;
        if (sink.junctions) merged_junctions += *sink.junctions;
        if (sam_out != nullptr) {
          sam_out->write(slot->sam.data(),
                         static_cast<std::streamsize>(slot->sam.size()));
        }
        ++run.stream_batches;
        if (callback && tracker.processed() >= next_check) {
          const ProgressSnapshot snap = tracker.snapshot(elapsed_secs());
          // Advance past every boundary this commit crossed so one large
          // batch produces one log row, not several duplicates.
          next_check = (snap.processed / check_interval + 1) * check_interval;
          run.progress_log.append(snap);
          if (callback(snap) == EngineCommand::kAbort) {
            abort_flag.store(true, std::memory_order_relaxed);
          }
        }
      }
      free_q.push(slot);  // recycle even past abort: a puller may be
                          // blocked on a free slot and must wake to exit
    }
  };

  auto worker = [&] {
    AlignWorkspace& ws =
        *workspaces_[next_worker_slot.fetch_add(1) % workspaces_.size()];
    u64 allocs = 0;
    while (StreamSlot* slot = pull()) {
      const u64 allocs_before = alloc_counter::thread_allocations();
      if (!abort_flag.load(std::memory_order_relaxed)) {
        try {
          const usize count = slot->batch.size();
          stage_views(slot->batch, ws);
          slot->outcomes.resize(count);
          align_views(ws, slot->sink, slot->outcomes);
          if (sam_out != nullptr) {
            // The hits live only until the workspace's next batch.
            slot->sam.clear();
            for (usize r = 0; r < count; ++r) {
              append_sam_records(slot->sam, *index_, slot->batch.name(r),
                                 slot->batch.sequence(r),
                                 slot->batch.quality(r), ws.batch.results[r]);
            }
          }
        } catch (...) {
          std::lock_guard lock(commit_mu);
          if (!worker_error) worker_error = std::current_exception();
          abort_flag.store(true, std::memory_order_relaxed);
        }
      }
      commit(slot);  // always: recycling must not stall behind an abort
      allocs += alloc_counter::thread_allocations() - allocs_before;
    }
    consumer_allocs.fetch_add(allocs, std::memory_order_relaxed);
  };

  if (config_.num_threads == 1) {
    worker();
  } else {
    // Fan the persistent pool's workers over the source: one long task
    // per worker, so a run costs task dispatch, not thread spawn.
    std::vector<std::future<void>> futures;
    futures.reserve(config_.num_threads);
    for (usize t = 0; t < config_.num_threads; ++t) {
      futures.push_back(pool_->submit(worker));
    }
    for (auto& f : futures) f.wait();  // all workers park before unwinding
    for (auto& f : futures) f.get();   // then rethrow the first failure
  }

  if (source_error) std::rethrow_exception(source_error);
  if (worker_error) std::rethrow_exception(worker_error);

  run.aborted = abort_flag.load();
  // A completed stream knows the true total; an aborted one keeps the
  // hint-sized vector (the unprocessed tail stays kUnmapped).
  if (!run.aborted && run.outcomes.size() > run.stats.processed) {
    run.outcomes.resize(run.stats.processed);
  }
  run.wall_seconds = elapsed_secs();
  if (config_.collect_junctions) run.junctions = merged_junctions.junctions();
  if (!run.progress_log.entries().empty() || !callback) {
    run.progress_log.append(tracker.snapshot(run.wall_seconds));
  }
  run.stream_consumer_allocs =
      consumer_allocs.load(std::memory_order_relaxed);
  for (usize i = 0; i < nslots; ++i) {
    run.stream_peak_arena_bytes +=
        stream_slots_[i]->batch.capacity_bytes() +
        stream_slots_[i]->outcomes.capacity() * sizeof(ReadOutcome);
  }
  return run;
}

}  // namespace staratlas
