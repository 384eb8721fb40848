// The engine's execution body against the serial reference: identical
// outcomes, stats, gene counts and junctions at every thread count and
// for every input kind, an early-stop abort landing on the first batch
// boundary past the checkpoint, bounded peak ingest memory, and an
// allocation-free steady state for the alignment work.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <sstream>
#include <streambuf>

#include "align/engine.h"
#include "align/run_request.h"
#include "common/error.h"
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

ReadSet stream_reads(usize n = 600, u64 seed = 4242) {
  const auto& w = world();
  return w.simulator->simulate(bulk_rna_profile(), n, Rng(seed));
}

EngineConfig stream_config(usize num_threads) {
  EngineConfig config;
  config.num_threads = num_threads;
  config.chunk_size = 32;
  config.collect_junctions = true;
  return config;
}

TEST(Stream, MatchesBatchRunAcrossThreadCounts) {
  const auto& w = world();
  const Annotation* annotation = &w.synthesizer->annotation();
  const ReadSet reads = stream_reads();
  const AlignmentRun reference =
      serial_reference(w.index111, annotation, stream_config(1), reads);

  // A caller's source decides the batch boundaries: uneven batches of 1 to
  // 40 reads must commit to the same result as the serial reference.
  for (const usize threads : {usize{1}, usize{4}, usize{8}}) {
    AlignmentEngine engine(w.index111, annotation, stream_config(threads));
    usize next = 0;
    usize batches = 0;
    const BatchSource uneven = [&](ReadBatch& batch) {
      const usize end = std::min(next + 1 + batches * 13 % 40, reads.size());
      for (; next < end; ++next) {
        const auto& rec = reads.reads[next];
        batch.append(rec.name, rec.sequence, rec.quality);
      }
      ++batches;
      return !batch.empty();
    };
    const AlignmentRun run = engine.execute(
        {.batches = uneven, .total_reads_hint = reads.size()});
    expect_identical_runs(reference, run,
                          "threads=" + std::to_string(threads));
    EXPECT_EQ(run.stream_batches, batches - 1);  // the last call ends it
  }
}

TEST(Stream, EarlyStopAbortsAtIdenticalReadCount) {
  const auto& w = world();
  const Annotation* annotation = &w.synthesizer->annotation();
  const ReadSet reads = stream_reads();

  // Abort at the first checkpoint (100 reads): the in-order commit stops
  // at the first 32-read batch boundary at or past it, at every thread
  // count.
  constexpr usize kAbortAt = 128;
  const AlignmentRun reference = serial_reference(
      w.index111, annotation, stream_config(1), reads, kAbortAt);
  const ProgressCallback abort_at_first = [](const ProgressSnapshot&) {
    return EngineCommand::kAbort;
  };
  for (const usize threads : {usize{1}, usize{4}, usize{8}}) {
    EngineConfig config = stream_config(threads);
    config.progress_check_interval = 100;
    AlignmentEngine engine(w.index111, annotation, config);
    const AlignmentRun run =
        engine.execute({.reads = &reads, .callback = abort_at_first});
    expect_identical_runs(reference, run,
                          "abort threads=" + std::to_string(threads));
    EXPECT_TRUE(run.aborted);
  }
}

TEST(Stream, ReusedEngineInterleavesRunAndRunStream) {
  const auto& w = world();
  const Annotation* annotation = &w.synthesizer->annotation();
  const ReadSet sample_a = stream_reads(400, 7);
  const ReadSet sample_b = stream_reads(250, 8);
  auto to_fastq = [](const ReadSet& reads) {
    std::ostringstream out;
    write_fastq(out, reads.reads);
    return out.str();
  };
  const std::string text_a = to_fastq(sample_a);
  const std::string text_b = to_fastq(sample_b);

  // One engine alternates ReadSet and FASTQ-text inputs of two samples;
  // its slots and workspaces carry nothing from one run into the next.
  AlignmentEngine engine(w.index111, annotation, stream_config(4));
  const AlignmentRun a_reads = engine.execute({.reads = &sample_a});
  const usize chunk = engine.config().chunk_size;
  const AlignmentRun b_text =
      engine.execute({.batches = fastq_batches(text_b, chunk),
                      .total_reads_hint = sample_b.size()});
  const AlignmentRun a_text =
      engine.execute({.batches = fastq_batches(text_a, chunk),
                      .total_reads_hint = sample_a.size()});
  const AlignmentRun b_reads = engine.execute({.reads = &sample_b});

  const AlignmentRun ref_a =
      serial_reference(w.index111, annotation, stream_config(1), sample_a);
  const AlignmentRun ref_b =
      serial_reference(w.index111, annotation, stream_config(1), sample_b);
  expect_identical_runs(ref_a, a_reads, "sample_a reads");
  expect_identical_runs(ref_a, a_text, "sample_a text");
  expect_identical_runs(ref_b, b_reads, "sample_b reads");
  expect_identical_runs(ref_b, b_text, "sample_b text");
}

/// Counts the bytes written and keeps none: a SAM sink that never grows.
class DiscardBuf : public std::streambuf {
 public:
  u64 bytes = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<u64>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes;
    return traits_type::not_eof(c);
  }
};

TEST(Stream, ConsumerSideIsAllocationFreeAtSteadyState) {
  const auto& w = world();
  const ReadSet reads = stream_reads(500, 99);

  // Junction collection merges into a heap-backed table by design, so it
  // stays off; the allocation-free claim is about the align/commit path,
  // per-read gene counting and SAM rendering included.
  // One worker thread pins the whole run to one workspace: with several
  // workers the scheduler decides which workspaces see work, so a
  // workspace left cold by the warm run can take batches in the measured
  // run and its first-touch growth would read as a steady-state
  // allocation. Source calls (here: copying reads into batch arenas) are
  // not alignment work and stay outside the count.
  EngineConfig config;
  config.num_threads = 1;
  config.chunk_size = 64;
  config.quant_gene_counts = false;
  config.collect_junctions = false;
  {
    AlignmentEngine engine(w.index111, nullptr, config);

    // First run warms every slot arena, outcome buffer and workspace to
    // the workload's high-water marks.
    engine.execute({.reads = &reads});
    const AlignmentRun warm = engine.execute({.reads = &reads});
    EXPECT_EQ(warm.stream_consumer_allocs, 0u)
        << "alignment work allocated at steady state";
    EXPECT_EQ(warm.stats.processed, reads.size());
  }

  // The same with gene counts and a SAM stream on.
  config.quant_gene_counts = true;
  AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), config);
  DiscardBuf buf;
  std::ostream sam(&buf);
  // One worker cycles num_threads + 2 = 3 slots over 8 batches, so the
  // slot a batch lands in shifts from run to run; three warm runs hand
  // every slot every batch, and with it each batch's SAM high-water mark.
  for (int run = 0; run < 3; ++run) {
    engine.execute({.reads = &reads, .sam_out = &sam});
  }
  const u64 run_bytes = buf.bytes / 3;
  buf.bytes = 0;
  const AlignmentRun warm = engine.execute({.reads = &reads, .sam_out = &sam});
  EXPECT_EQ(warm.stream_consumer_allocs, 0u)
      << "gene counting or SAM rendering allocated at steady state";
  EXPECT_EQ(warm.stats.processed, reads.size());
  EXPECT_GT(warm.gene_counts.total_counted(), 0u);
  EXPECT_GT(buf.bytes, 0u);
  EXPECT_EQ(buf.bytes, run_bytes);
}

TEST(Stream, PeakIngestMemoryBoundedByQueueDepth) {
  const auto& w = world();
  const ReadSet reads = stream_reads(2'000, 11);

  EngineConfig config;
  config.num_threads = 4;
  config.chunk_size = 50;
  config.quant_gene_counts = false;
  AlignmentEngine engine(w.index111, nullptr, config);
  const AlignmentRun run = engine.execute({.reads = &reads});

  EXPECT_EQ(run.stats.processed, reads.size());
  ASSERT_GT(run.stream_peak_arena_bytes, 0u);
  // num_threads + 2 = 6 slots x 50 reads in flight out of 2000: the
  // resident batch arenas must stay well under the whole decoded FASTQ.
  EXPECT_LT(run.stream_peak_arena_bytes, reads.fastq_bytes.bytes());
}

TEST(Stream, EmptyStreamCompletesCleanly) {
  const auto& w = world();
  EngineConfig config;
  config.num_threads = 2;
  config.quant_gene_counts = false;
  AlignmentEngine engine(w.index111, nullptr, config);
  const AlignmentRun run =
      engine.execute({.batches = [](ReadBatch&) { return false; }});
  EXPECT_EQ(run.stats.processed, 0u);
  EXPECT_FALSE(run.aborted);
  EXPECT_TRUE(run.outcomes.empty());
  EXPECT_EQ(run.stream_batches, 0u);
}

TEST(Stream, ProducerExceptionPropagates) {
  const auto& w = world();
  const ReadSet reads = stream_reads(100, 3);
  EngineConfig config;
  config.num_threads = 2;
  config.quant_gene_counts = false;
  AlignmentEngine engine(w.index111, nullptr, config);
  usize calls = 0;
  const BatchSource flaky = [&](ReadBatch& batch) {
    if (++calls == 3) throw IoError("decoder blew up");
    for (usize i = 0; i < 10; ++i) {
      const auto& rec = reads.reads[(calls - 1) * 10 + i];
      batch.append(rec.name, rec.sequence, rec.quality);
    }
    return true;
  };
  EXPECT_THROW(
      engine.execute({.batches = flaky, .total_reads_hint = reads.size()}),
      IoError);
  // The engine must be reusable after a source failure.
  const AlignmentRun run = engine.execute({.reads = &reads});
  EXPECT_EQ(run.stats.processed, reads.size());
}

}  // namespace
}  // namespace staratlas
