// INGEST — streaming FASTQ/SRA ingest perf harness.
//
// Measures, with real work on the bench-scale genome world:
//   1. FASTQ parse throughput (MB/s) of the block parser
//      (FastqBlockReader -> ReadBatch arena) vs the getline reader
//      (FastqReader -> per-record std::strings), plus heap allocations
//      per read for both parsers (block steady state must be 0);
//   2. end-to-end parse/align overlap: one sample processed sequentially
//      (fasterq_dump fully, then an engine.execute over the ReadSet) vs
//      streamed (an engine.execute whose workers pull batches off the SRA
//      decoder one at a time while the others align), 4 threads —
//      streamed must beat sequential;
//   3. steady-state consumer-side allocations and the peak batch-arena
//      footprint of the streaming path.
//
// Emits machine-readable BENCH_ingest.json (schema in EXPERIMENTS.md).
//
// Flags:
//   --smoke             reduced configuration (CI: the bench_ingest_smoke
//                       ctest)
//   --out PATH          output JSON path (default BENCH_ingest.json)
//   --baseline PATH     compare against a committed baseline; exit 1 on
//                       missing schema keys, nonzero steady-state
//                       allocations, or a >30% regression in the parse
//                       speedup or overlap gain

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>

#include "align/engine.h"
#include "bench_common.h"
#include "bench_json.h"
#include "common/alloc_counter.h"
#include "io/fastq.h"
#include "io/fastq_block.h"
#include "sra/container.h"
#include "sra/toolkit.h"

using namespace staratlas;
using namespace staratlas::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct IngestConfig {
  usize parse_reads = 20'000;
  usize passes = 5;  ///< best-of-N to reject scheduler/frequency noise
  usize e2e_reads = 8'000;
  usize e2e_threads = 4;
  usize e2e_iters = 3;
  bool smoke = false;
};

struct ParseResult {
  double mb_per_sec_getline = 0;
  double mb_per_sec_block = 0;         ///< memory mode (zero-copy input)
  double mb_per_sec_block_stream = 0;  ///< istream mode (256 KiB blocks)
  double parse_speedup = 0;
  double allocs_per_read_getline = 0;
  double allocs_per_read_block_steady = 0;
};

/// Parse throughput over an in-memory FASTQ image (no disk, so the
/// numbers compare the parsers, not the storage).
ParseResult run_parse(const IngestConfig& cfg) {
  const BenchWorld& w = bench_world();
  const ReadSet reads =
      w.simulator->simulate(bulk_rna_profile(), cfg.parse_reads, Rng(95));
  std::ostringstream buffer;
  write_fastq(buffer, reads.reads);
  const std::string text = buffer.str();
  const double mb = static_cast<double>(text.size()) / (1024.0 * 1024.0);

  ParseResult out;

  // One stream per parser, rewound between passes so the timed window
  // covers only the parse loop (not the 4 MB istringstream copy or reader
  // construction — both parsers get the same treatment).
  std::istringstream in(text);

  // getline reader: one FastqRecord (3 strings) materialized per read.
  {
    double best_elapsed = 1e30;
    u64 allocs = 0;
    u64 side_effect = 0;
    for (usize pass = 0; pass < cfg.passes; ++pass) {
      in.clear();
      in.seekg(0);
      FastqReader reader(in);
      const u64 allocs_before = alloc_counter::thread_allocations();
      const auto start = std::chrono::steady_clock::now();
      while (const auto rec = reader.next()) side_effect += rec->sequence.size();
      best_elapsed = std::min(best_elapsed, seconds_since(start));
      allocs = alloc_counter::thread_allocations() - allocs_before;
    }
    out.mb_per_sec_getline = mb / best_elapsed;
    out.allocs_per_read_getline =
        static_cast<double>(allocs) / static_cast<double>(reads.size());
    if (side_effect == u64(-1)) std::cout << "";  // defeat optimizer
  }

  // Block parser, memory mode (zero-copy input, the mmap'd-file /
  // decoded-container path) into one recycled batch. The warm pass grows
  // the batch arena to the workload's high-water mark; the timed window
  // covers reader construction (the newline index build) plus the whole
  // parse, and the alloc window covers the parse loop, which is steady
  // state and must not allocate at all.
  {
    ReadBatch batch;
    {
      FastqBlockReader warm{std::string_view(text)};
      while (warm.read_batch(batch, 1024) > 0) batch.clear();
    }
    double best_elapsed = 1e30;
    u64 allocs = 0;
    u64 side_effect = 0;
    for (usize pass = 0; pass < cfg.passes; ++pass) {
      const auto start = std::chrono::steady_clock::now();
      FastqBlockReader reader{std::string_view(text)};
      const u64 allocs_before = alloc_counter::thread_allocations();
      usize got;
      while ((got = reader.read_batch(batch, 1024)) > 0) {
        for (usize i = 0; i < got; ++i) side_effect += batch.sequence(i).size();
        batch.clear();
      }
      best_elapsed = std::min(best_elapsed, seconds_since(start));
      allocs = alloc_counter::thread_allocations() - allocs_before;
    }
    out.mb_per_sec_block = mb / best_elapsed;
    out.allocs_per_read_block_steady =
        static_cast<double>(allocs) / static_cast<double>(reads.size());
    if (side_effect == u64(-1)) std::cout << "";
  }

  // Block parser, istream mode (256 KiB refills through the same stream
  // the getline reader uses).
  {
    ReadBatch batch;
    double best_elapsed = 1e30;
    u64 side_effect = 0;
    for (usize pass = 0; pass < cfg.passes; ++pass) {
      in.clear();
      in.seekg(0);
      FastqBlockReader reader(in);
      const auto start = std::chrono::steady_clock::now();
      usize got;
      while ((got = reader.read_batch(batch, 1024)) > 0) {
        for (usize i = 0; i < got; ++i) side_effect += batch.sequence(i).size();
        batch.clear();
      }
      best_elapsed = std::min(best_elapsed, seconds_since(start));
    }
    out.mb_per_sec_block_stream = mb / best_elapsed;
    if (side_effect == u64(-1)) std::cout << "";
  }

  out.parse_speedup = out.mb_per_sec_block / out.mb_per_sec_getline;
  return out;
}

struct OverlapResult {
  double sequential_secs = 0;
  double streamed_secs = 0;
  double overlap_gain = 0;
  u64 stream_consumer_allocs = ~u64{0};  ///< min over measured runs
  u64 peak_arena_bytes = 0;
  u64 fastq_bytes = 0;
};

/// One sample end to end: full fasterq-dump then align (the batch path)
/// vs decode-while-aligning (a BatchSource run). Same container, same
/// engine.
OverlapResult run_overlap(const IngestConfig& cfg) {
  const BenchWorld& w = bench_world();
  const ReadSet reads =
      w.simulator->simulate(bulk_rna_profile(), cfg.e2e_reads, Rng(96));
  SraMetadata metadata;
  metadata.accession = "SRRBENCH";
  metadata.num_reads = reads.size();
  for (const auto& read : reads.reads) {
    metadata.total_bases += read.sequence.size();
  }
  const auto container = sra_encode(metadata, reads.reads);

  EngineConfig config;
  config.num_threads = cfg.e2e_threads;
  config.quant_gene_counts = false;
  AlignmentEngine engine(w.index111, nullptr, config);

  OverlapResult out;

  // Warm both paths once (pool spawn, workspace + slot arena growth).
  {
    const DumpResult dumped = fasterq_dump(container);
    engine.execute({.reads = &dumped.reads});
    FasterqDumpStream dump(container);
    engine.execute({.batches =
                        [&](ReadBatch& batch) {
                          return dump.next_batch(batch, config.chunk_size) > 0;
                        },
                    .total_reads_hint = metadata.num_reads});
  }

  // Passes are interleaved (sequential, then streamed, each pass) so load
  // and frequency drift on a shared host hits both paths equally; each
  // path keeps its own best-of-passes.
  double best_sequential = 1e30;
  double best_streamed = 1e30;
  for (usize pass = 0; pass < cfg.passes; ++pass) {
    // Sequential: stage 2 completes before stage 3 starts.
    {
      const auto start = std::chrono::steady_clock::now();
      for (usize i = 0; i < cfg.e2e_iters; ++i) {
        const DumpResult dumped = fasterq_dump(container);
        engine.execute({.reads = &dumped.reads});
        out.fastq_bytes = dumped.fastq_bytes.bytes();
      }
      best_sequential = std::min(best_sequential, seconds_since(start));
    }
    // Streamed: one worker at a time decodes while the others align.
    {
      const auto start = std::chrono::steady_clock::now();
      for (usize i = 0; i < cfg.e2e_iters; ++i) {
        FasterqDumpStream dump(container);
        const BatchSource source = [&](ReadBatch& batch) {
          return dump.next_batch(batch, config.chunk_size) > 0;
        };
        EngineRunRequest request;
        request.batches = source;
        request.total_reads_hint = metadata.num_reads;
        const AlignmentRun run = engine.execute(request);
        // Minimum across runs: the steady-state claim is that a fully
        // warm run allocates nothing on the consumer side. Which worker
        // threads (and so which workspaces) drain a given run is the
        // scheduler's choice, so a single run can still hit first-touch
        // workspace growth that the warm-up run never exercised.
        out.stream_consumer_allocs =
            std::min(out.stream_consumer_allocs, run.stream_consumer_allocs);
        out.peak_arena_bytes = run.stream_peak_arena_bytes;
      }
      best_streamed = std::min(best_streamed, seconds_since(start));
    }
  }
  out.sequential_secs = best_sequential / static_cast<double>(cfg.e2e_iters);
  out.streamed_secs = best_streamed / static_cast<double>(cfg.e2e_iters);

  out.overlap_gain = out.sequential_secs / out.streamed_secs;
  return out;
}

int check_against_baseline(const std::string& baseline_path,
                           const ParseResult& parse,
                           const OverlapResult& overlap, bool smoke) {
  static const char* kRequiredKeys[] = {
      "mb_per_sec_getline", "mb_per_sec_block", "parse_speedup",
      "allocs_per_read_block_steady", "sequential_secs", "streamed_secs",
      "overlap_gain"};
  const auto baseline = read_json_numbers(baseline_path);
  int failures = 0;
  for (const char* key : kRequiredKeys) {
    if (!baseline.count(key)) {
      std::cerr << "SMOKE FAIL: baseline missing key '" << key << "'\n";
      ++failures;
    }
  }
  if (parse.allocs_per_read_block_steady != 0) {
    std::cerr << "SMOKE FAIL: block parser steady-state allocations per read"
              << " = " << parse.allocs_per_read_block_steady
              << " (expected 0)\n";
    ++failures;
  }
  if (overlap.stream_consumer_allocs != 0) {
    std::cerr << "SMOKE FAIL: streaming consumer allocations = "
              << overlap.stream_consumer_allocs << " (expected 0)\n";
    ++failures;
  }
  // The in-flight window (queue depth x batch arena) is a fixed size, so
  // "peak resident arenas < whole decoded FASTQ" is only a meaningful
  // bound when the input dwarfs the window — which the smoke corpus, by
  // design, does not. Full runs enforce it; stream_test additionally
  // asserts the bound at a controlled queue depth.
  if (!smoke && overlap.peak_arena_bytes >= overlap.fastq_bytes) {
    std::cerr << "SMOKE FAIL: peak batch arenas (" << overlap.peak_arena_bytes
              << " B) not bounded below the decoded FASTQ ("
              << overlap.fastq_bytes << " B)\n";
    ++failures;
  }
  // >30% regression vs the committed baseline fails. Both metrics are
  // in-process ratios, so they transfer across machines.
  const double kKeep = 0.7;
  if (baseline.count("parse_speedup") &&
      parse.parse_speedup < kKeep * baseline.at("parse_speedup")) {
    std::cerr << "SMOKE FAIL: parse_speedup " << parse.parse_speedup
              << " regressed >30% vs baseline "
              << baseline.at("parse_speedup") << "\n";
    ++failures;
  }
  if (baseline.count("overlap_gain") &&
      overlap.overlap_gain < kKeep * baseline.at("overlap_gain")) {
    std::cerr << "SMOKE FAIL: overlap_gain " << overlap.overlap_gain
              << " regressed >30% vs baseline " << baseline.at("overlap_gain")
              << "\n";
    ++failures;
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  IngestConfig cfg;
  std::string out_path = "BENCH_ingest.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
      cfg.parse_reads = 4'000;
      cfg.passes = 3;
      cfg.e2e_reads = 1'500;
      cfg.e2e_iters = 2;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::cerr << "usage: bench_ingest [--smoke] [--out PATH] "
                   "[--baseline PATH]\n";
      return 2;
    }
  }

  std::cout << "INGEST: streaming FASTQ ingest and parse/align overlap"
            << (cfg.smoke ? " (smoke)" : "") << "\n";

  const ParseResult parse = run_parse(cfg);
  std::cout << "parse (" << cfg.parse_reads << " reads, in-memory FASTQ)\n"
            << "  MB/s getline reader        : " << parse.mb_per_sec_getline
            << "\n  MB/s block parser (memory) : " << parse.mb_per_sec_block
            << "\n  MB/s block parser (stream) : "
            << parse.mb_per_sec_block_stream
            << "\n  parse speedup              : " << parse.parse_speedup
            << "x\n  allocs/read getline        : "
            << parse.allocs_per_read_getline
            << "\n  allocs/read block steady   : "
            << parse.allocs_per_read_block_steady << "\n";

  const OverlapResult overlap = run_overlap(cfg);
  std::cout << "end-to-end (" << cfg.e2e_reads << " reads, "
            << cfg.e2e_threads << " threads, dump+align)\n"
            << "  sequential secs/sample     : " << overlap.sequential_secs
            << "\n  streamed secs/sample       : " << overlap.streamed_secs
            << "\n  overlap gain               : " << overlap.overlap_gain
            << "x\n  consumer allocs (steady)   : "
            << overlap.stream_consumer_allocs
            << "\n  peak batch arenas          : " << overlap.peak_arena_bytes
            << " B of " << overlap.fastq_bytes << " B FASTQ\n";

  JsonObject config_json;
  config_json.add("parse_reads", static_cast<u64>(cfg.parse_reads))
      .add("passes", static_cast<u64>(cfg.passes))
      .add("e2e_reads", static_cast<u64>(cfg.e2e_reads))
      .add("e2e_threads", static_cast<u64>(cfg.e2e_threads))
      .add("e2e_iters", static_cast<u64>(cfg.e2e_iters));
  JsonObject parse_json;
  parse_json.add("mb_per_sec_getline", parse.mb_per_sec_getline)
      .add("mb_per_sec_block", parse.mb_per_sec_block)
      .add("mb_per_sec_block_stream", parse.mb_per_sec_block_stream)
      .add("parse_speedup", parse.parse_speedup)
      .add("allocs_per_read_getline", parse.allocs_per_read_getline)
      .add("allocs_per_read_block_steady", parse.allocs_per_read_block_steady);
  JsonObject overlap_json;
  overlap_json.add("sequential_secs", overlap.sequential_secs)
      .add("streamed_secs", overlap.streamed_secs)
      .add("overlap_gain", overlap.overlap_gain)
      .add("stream_consumer_allocs", overlap.stream_consumer_allocs)
      .add("peak_arena_bytes", overlap.peak_arena_bytes)
      .add("fastq_bytes", overlap.fastq_bytes);
  JsonObject root;
  root.add("bench", "ingest")
      .add("schema_version", 1)
      .add("smoke", cfg.smoke)
      .add("config", config_json)
      .add("parse", parse_json)
      .add("overlap", overlap_json);
  root.write_file(out_path);
  std::cout << "wrote " << out_path << "\n";

  if (!baseline_path.empty()) {
    const int failures =
        check_against_baseline(baseline_path, parse, overlap, cfg.smoke);
    if (failures) {
      std::cerr << failures << " smoke check(s) failed\n";
      return 1;
    }
    std::cout << "smoke checks passed vs " << baseline_path << "\n";
  }
  return 0;
}
