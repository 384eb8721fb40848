// Guards the engine's determinism contract: outcomes, gene counts and
// junctions match the serial reference across thread counts and across
// repeated runs on a reused engine (whose pool, workspaces and batch slots
// persist between runs), and an early-stop abort lands on the same read
// count and progress rows at every thread count, even with every CPU busy.
// The SAM the engine writes at its in-order commit is byte-equal to the
// serial reference's per-read SamWriter output for every input kind and
// thread count, and holds exactly the processed reads of an aborted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "align/early_stopping.h"
#include "align/engine.h"
#include "align/run_request.h"
#include "align/sam.h"
#include "io/fastq.h"
#include "sim/library_profile.h"
#include "sim/read_simulator.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::expect_identical_runs;
using staratlas::testing::fastq_batches;
using staratlas::testing::serial_reference;
using staratlas::testing::world;

ReadSet determinism_reads() {
  const auto& w = world();
  // A mixed profile so unique, multi, and unmapped outcomes all occur.
  return w.simulator->simulate(bulk_rna_profile(), 600, Rng(4242));
}

EngineConfig determinism_config(usize num_threads) {
  EngineConfig config;
  config.num_threads = num_threads;
  config.chunk_size = 32;  // plenty of batches even at 8 threads
  config.collect_junctions = true;
  return config;
}

AlignmentRun reference_run(const ReadSet& reads) {
  const auto& w = world();
  return serial_reference(w.index111, &w.synthesizer->annotation(),
                          determinism_config(1), reads);
}

TEST(Determinism, IdenticalAcrossThreadCounts) {
  const auto& w = world();
  const ReadSet reads = determinism_reads();
  const AlignmentRun reference = reference_run(reads);

  for (const usize threads : {usize{1}, usize{4}, usize{8}}) {
    AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                           determinism_config(threads));
    expect_identical_runs(reference, engine.execute({.reads = &reads}),
                          "threads=" + std::to_string(threads));
  }
}

TEST(Determinism, IdenticalAcrossRepeatedRunsOnReusedEngine) {
  const auto& w = world();
  const ReadSet reads = determinism_reads();
  const AlignmentRun reference = reference_run(reads);

  // The same engine object runs the same sample three times; its pool and
  // per-worker workspaces persist, so any stale workspace state (seeds,
  // hit buffers, result slot) from run N would corrupt run N+1.
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                         determinism_config(4));
  for (int rep = 0; rep < 3; ++rep) {
    expect_identical_runs(reference, engine.execute({.reads = &reads}),
                          "repeat=" + std::to_string(rep));
  }
}

TEST(Determinism, ReusedEngineIsCleanAcrossDifferentSamples) {
  const auto& w = world();
  const ReadSet sample_a = w.simulator->simulate(bulk_rna_profile(), 400,
                                                 Rng(7));
  const ReadSet sample_b = w.simulator->simulate(bulk_rna_profile(), 250,
                                                 Rng(8));

  // Interleave two different samples on one engine; each must produce the
  // reference result every time.
  AlignmentEngine reused(w.index111, &w.synthesizer->annotation(),
                         determinism_config(4));
  const AlignmentRun a_warm = reused.execute({.reads = &sample_a});
  const AlignmentRun b_warm = reused.execute({.reads = &sample_b});
  const AlignmentRun a_again = reused.execute({.reads = &sample_a});

  expect_identical_runs(reference_run(sample_a), a_warm, "sample_a");
  expect_identical_runs(reference_run(sample_b), b_warm, "sample_b");
  expect_identical_runs(a_warm, a_again, "sample_a warm vs again");
}

/// Keeps every CPU spinning for its lifetime, so engine workers are
/// preempted at arbitrary points.
class CpuHogs {
 public:
  CpuHogs() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      hogs_.emplace_back([this] {
        u64 spin = 0;
        while (!stop_.load(std::memory_order_relaxed)) ++spin;
        sink_.fetch_add(spin, std::memory_order_relaxed);
      });
    }
  }
  ~CpuHogs() {
    stop_.store(true);
    for (auto& hog : hogs_) hog.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<u64> sink_{0};
  std::vector<std::thread> hogs_;
};

TEST(Determinism, EarlyStopAbortPointStableUnderContention) {
  const auto& w = world();
  // Single-cell reads map poorly, so the paper's rule aborts at the 10%
  // checkpoint (200 reads). Checkpoints fall every 40 reads; with 64-read
  // batches the first commit at or past 200 reads is at 256.
  const ReadSet reads =
      w.simulator->simulate(single_cell_profile(), 2'000, Rng(99));
  const CpuHogs hogs;

  struct Observed {
    u64 processed = 0;
    bool aborted = false;
    std::vector<ProgressSnapshot> rows;
  };
  std::optional<Observed> first;
  for (const usize threads : {usize{1}, usize{2}, usize{4}}) {
    EngineConfig config;
    config.num_threads = threads;
    config.chunk_size = 64;
    AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), config);
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " rep=" + std::to_string(rep));
      const AlignmentRun run = engine.execute(
          {.reads = &reads, .early_stop = EarlyStopPolicy{}});
      const Observed seen{run.stats.processed, run.aborted,
                          run.progress_log.entries()};
      EXPECT_EQ(seen.processed, 256u);
      EXPECT_TRUE(seen.aborted);
      if (!first) {
        first = seen;
        continue;
      }
      EXPECT_EQ(seen.processed, first->processed);
      EXPECT_EQ(seen.aborted, first->aborted);
      ASSERT_EQ(seen.rows.size(), first->rows.size());
      for (usize i = 0; i < seen.rows.size(); ++i) {
        const ProgressSnapshot& a = seen.rows[i];
        const ProgressSnapshot& b = first->rows[i];
        EXPECT_EQ(a.total_reads, b.total_reads) << "row " << i;
        EXPECT_EQ(a.processed, b.processed) << "row " << i;
        EXPECT_EQ(a.unique, b.unique) << "row " << i;
        EXPECT_EQ(a.multi, b.multi) << "row " << i;
        EXPECT_EQ(a.too_many, b.too_many) << "row " << i;
        EXPECT_EQ(a.unmapped, b.unmapped) << "row " << i;
      }
    }
  }
}

/// Runs `request` with sam_out pointed at a stream that already holds the
/// header, and returns the whole SAM text.
std::string engine_sam(AlignmentEngine& engine, EngineRunRequest request,
                       AlignmentRun* run = nullptr) {
  std::ostringstream out;
  write_sam_header(out, world().index111);
  request.sam_out = &out;
  AlignmentRun result = engine.execute(request);
  if (run != nullptr) *run = std::move(result);
  return out.str();
}

/// Byte equality, reporting the first differing line instead of a diff of
/// the whole text.
void expect_same_sam(const std::string& got, const std::string& want,
                     const std::string& label) {
  if (got == want) return;
  std::istringstream got_lines(got);
  std::istringstream want_lines(want);
  std::string a;
  std::string b;
  for (usize line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(got_lines, a));
    const bool more_b = static_cast<bool>(std::getline(want_lines, b));
    if (a != b || more_a != more_b) {
      ADD_FAILURE() << label << ": SAM differs at line " << line
                    << "\n  got:  " << (more_a ? a : "<end>")
                    << "\n  want: " << (more_b ? b : "<end>");
      return;
    }
  }
}

TEST(Determinism, SamMatchesSerialReferenceForEveryInput) {
  const auto& w = world();
  const ReadSet reads = determinism_reads();
  std::string want;
  serial_reference(w.index111, &w.synthesizer->annotation(),
                   determinism_config(1), reads, reads.size(), &want);
  std::ostringstream text;
  write_fastq(text, reads.reads);
  const std::string fastq = text.str();

  for (const usize threads : {usize{1}, usize{2}, usize{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                           determinism_config(threads));
    expect_same_sam(engine_sam(engine, {.reads = &reads}), want, "ReadSet");
    const BatchSource streamed =
        fastq_batches(fastq, engine.config().chunk_size);
    expect_same_sam(engine_sam(engine, {.batches = streamed,
                                        .total_reads_hint = reads.size()}),
                    want, "FASTQ text");
    // Uneven batches: 1, 2, 5, 14, 41, 122 reads, then again.
    usize next = 0;
    usize step = 0;
    const BatchSource uneven = [&](ReadBatch& batch) {
      usize size = 1;
      for (usize i = 0; i < step % 6; ++i) size = size * 3 - 1;
      ++step;
      for (const usize end = std::min(next + size, reads.size()); next < end;
           ++next) {
        const FastqRecord& rec = reads.reads[next];
        batch.append(rec.name, rec.sequence, rec.quality);
      }
      return !batch.empty();
    };
    expect_same_sam(engine_sam(engine, {.batches = uneven}), want, "uneven");
  }
}

TEST(Determinism, AbortedRunSamHoldsExactlyTheProcessedReads) {
  const auto& w = world();
  // Single-cell reads trip the paper's rule at the first 64-read commit
  // past the 10% checkpoint: 256 of 2000 reads.
  const ReadSet reads =
      w.simulator->simulate(single_cell_profile(), 2'000, Rng(99));
  EngineConfig config;
  config.chunk_size = 64;
  std::string want;
  serial_reference(w.index111, &w.synthesizer->annotation(), config, reads,
                   256, &want);

  for (const usize threads : {usize{1}, usize{2}, usize{4}}) {
    config.num_threads = threads;
    AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), config);
    AlignmentRun run;
    const std::string sam = engine_sam(
        engine, {.reads = &reads, .early_stop = EarlyStopPolicy{}}, &run);
    EXPECT_TRUE(run.aborted);
    EXPECT_EQ(run.stats.processed, 256u);
    expect_same_sam(sam, want, "threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace staratlas
