// INDEX STARTUP — the boot path the paper's §III.A init phase models:
// build the index, get it onto disk, and get workers attached to it.
//
// Measures, with real work on a bench-scale genome:
//   1. index build wall time at 1/2/4/8 threads (prefix-bucketed parallel
//      builder vs the sequential SA-IS reference; outputs are
//      property-tested bit-identical, so this is a pure perf knob);
//   2. cold-load throughput of the load paths: v3 stream and v3 mmap
//      attach (the zero-copy O(header) path — the in-process analog of
//      attaching to STAR's shm segment);
//   3. SharedIndexCache contention: N workers hammering 2 keys with a
//      slow loader — duplicate loads must be zero (single-flight) and
//      loads for distinct keys must overlap rather than serialize.
//
// Emits machine-readable BENCH_index_startup.json (schema in
// EXPERIMENTS.md).
//
// Flags (bench_json.h): --smoke (the bench_index_startup_smoke ctest),
// --out PATH, --baseline PATH (evaluate the gates declared in main; exit 1
// on a miss).
//
// Note on the build numbers: this box may be single-core, in which case
// the parallel builder's extra bookkeeping makes >1-thread builds *slower*
// — reported honestly; the speedup is only gated against the committed
// same-box baseline, never against an absolute multi-core expectation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "genome/synthesizer.h"
#include "index/shared_cache.h"

using namespace staratlas;
using namespace staratlas::bench;

namespace {

struct StartupConfig {
  usize build_chromosomes = 2;
  usize build_chromosome_length = 500'000;
  usize build_passes = 2;
  usize load_passes = 5;
  usize cache_workers = 8;
  double cache_loader_secs = 0.08;
};

struct BuildResult {
  double secs_1t = 0;
  double secs_2t = 0;
  double secs_4t = 0;
  double secs_8t = 0;
  double speedup_4t = 0;
  u64 text_bytes = 0;
};

BuildResult run_build(const StartupConfig& cfg) {
  GenomeSpec spec;
  spec.num_chromosomes = cfg.build_chromosomes;
  spec.chromosome_length = cfg.build_chromosome_length;
  spec.genes_per_chromosome = 10;
  spec.seed = 77;
  const GenomeSynthesizer synthesizer(spec);
  const Assembly assembly = synthesizer.make_release111();

  BuildResult out;
  const auto timed_build = [&](usize threads) {
    return [&, threads] {
      IndexParams params;
      params.num_threads = threads;
      const auto start = std::chrono::steady_clock::now();
      const GenomeIndex index = GenomeIndex::build(assembly, params);
      const double secs = seconds_since(start);
      out.text_bytes = index.text().size();
      return secs;
    };
  };
  const auto secs =
      interleaved_best_of(cfg.build_passes, timed_build(1), timed_build(2),
                          timed_build(4), timed_build(8));
  out.secs_1t = secs[0];
  out.secs_2t = secs[1];
  out.secs_4t = secs[2];
  out.secs_8t = secs[3];
  out.speedup_4t = out.secs_1t / out.secs_4t;
  return out;
}

struct ColdLoadResult {
  double file_mb_v3 = 0;
  double v3_stream_mb_s = 0;
  double v3_mmap_attach_mb_s = 0;
  double v3_mmap_attach_secs = 0;
  double v3_stream_secs = 0;
  double mmap_vs_stream_speedup = 0;
};

ColdLoadResult run_cold_load(const StartupConfig& cfg) {
  const BenchWorld& w = bench_world();
  const std::string dir = "/tmp";
  const std::string v3_path = dir + "/staratlas_bench_index_v3.bin";
  w.index111.save_file(v3_path, GenomeIndex::kVersionV3);

  const auto file_mb = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return static_cast<double>(in.tellg()) / (1024.0 * 1024.0);
  };
  ColdLoadResult out;
  out.file_mb_v3 = file_mb(v3_path);

  // "Cold" here means a fresh load into a new GenomeIndex each pass; the
  // page cache stays warm for every path alike, so the comparison
  // isolates the work each loader does per byte, not the disk.
  const auto timed_load = [&](IndexLoadMode mode) {
    return [&, mode] {
      const auto start = std::chrono::steady_clock::now();
      const GenomeIndex loaded = GenomeIndex::load_file(v3_path, mode);
      const double secs = seconds_since(start);
      if (loaded.prefix_lut_k() == 0) std::cout << "";  // defeat optimizer
      return secs;
    };
  };
  if (MappedFile::supported()) {
    const auto secs =
        interleaved_best_of(cfg.load_passes, timed_load(IndexLoadMode::kStream),
                            timed_load(IndexLoadMode::kMmap));
    out.v3_stream_secs = secs[0];
    out.v3_mmap_attach_secs = secs[1];
  } else {
    out.v3_stream_secs = interleaved_best_of(
        cfg.load_passes, timed_load(IndexLoadMode::kStream))[0];
  }

  out.v3_stream_mb_s = out.file_mb_v3 / out.v3_stream_secs;
  if (out.v3_mmap_attach_secs > 0) {
    out.v3_mmap_attach_mb_s = out.file_mb_v3 / out.v3_mmap_attach_secs;
    out.mmap_vs_stream_speedup = out.v3_stream_secs / out.v3_mmap_attach_secs;
  }
  std::remove(v3_path.c_str());
  return out;
}

struct CacheResult {
  u64 loader_invocations = 0;
  u64 duplicate_loads = 0;
  u64 hits = 0;
  double wall_secs = 0;
  /// Sum of the loaders' [enter, exit] durations over the span from the
  /// first enter to the last exit: ~keys when they overlap, <= 1 when
  /// serialized.
  double concurrency_ratio = 0;
};

CacheResult run_cache(const StartupConfig& cfg) {
  GenomeSpec spec;
  spec.num_chromosomes = 1;
  spec.chromosome_length = 20'000;
  spec.genes_per_chromosome = 2;
  spec.seed = 5;
  const GenomeSynthesizer synthesizer(spec);
  const Assembly assembly = synthesizer.make_release111();

  SharedIndexCache cache(ByteSize::from_gib(1.0));
  std::atomic<u64> invocations{0};
  const auto start = std::chrono::steady_clock::now();
  std::mutex intervals_mu;
  std::vector<std::pair<double, double>> intervals;  // loader [enter, exit]
  const auto loader = [&] {
    ++invocations;
    const double enter = seconds_since(start);
    // Dominated by a sleep standing in for the S3 download + load — the
    // part the cache must not duplicate or serialize across keys.
    std::this_thread::sleep_for(std::chrono::duration<double>(
        cfg.cache_loader_secs));
    GenomeIndex index = GenomeIndex::build(assembly);
    const double exit = seconds_since(start);
    std::lock_guard lock(intervals_mu);
    intervals.emplace_back(enter, exit);
    return index;
  };
  const std::vector<std::string> keys = {"r108", "r111"};

  std::vector<std::thread> workers;
  for (usize t = 0; t < cfg.cache_workers; ++t) {
    workers.emplace_back([&, t] {
      auto index = cache.acquire(keys[t % keys.size()], loader);
      if (index == nullptr) std::abort();
    });
  }
  for (auto& worker : workers) worker.join();

  CacheResult out;
  out.wall_secs = seconds_since(start);
  out.loader_invocations = invocations.load();
  out.duplicate_loads = out.loader_invocations - keys.size();
  out.hits = cache.hits();
  // Two keys, each needing one load. Serialized (the old lock-across-load
  // design) the loads are disjoint and the ratio is <= 1; single-flight
  // with per-key parallelism they overlap and it is ~2 (sleeps overlap
  // even on one core). Measured on the loaders' own intervals, so thread
  // spawn and joins, which are not the cache's doing, stay out of it.
  double busy = 0;
  double first_enter = out.wall_secs;
  double last_exit = 0;
  for (const auto& [enter, exit] : intervals) {
    busy += exit - enter;
    first_enter = std::min(first_enter, enter);
    last_exit = std::max(last_exit, exit);
  }
  out.concurrency_ratio =
      last_exit > first_enter ? busy / (last_exit - first_enter) : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "index_startup");
  StartupConfig cfg;
  if (opts.smoke) {
    cfg.build_chromosomes = 1;
    cfg.build_chromosome_length = 150'000;
    cfg.build_passes = 2;
    cfg.load_passes = 3;
    // loader sleep stays at the full value: it must dominate the
    // post-sleep tiny-index build for the concurrency ratio to be a
    // clean signal on a one-core box.
  }

  std::cout << "INDEX STARTUP: build / cold load / cache contention"
            << (opts.smoke ? " (smoke)" : "") << "\n";
  std::cout << "hardware threads: " << std::thread::hardware_concurrency()
            << "\n";

  const BuildResult build = run_build(cfg);
  std::cout << "build (" << build.text_bytes << " B text)\n"
            << "  1 thread  : " << build.secs_1t << " s\n"
            << "  2 threads : " << build.secs_2t << " s\n"
            << "  4 threads : " << build.secs_4t << " s\n"
            << "  8 threads : " << build.secs_8t << " s\n"
            << "  speedup@4 : " << build.speedup_4t << "x\n";

  const ColdLoadResult cold = run_cold_load(cfg);
  std::cout << "cold load (v3 " << cold.file_mb_v3 << " MB)\n"
            << "  v3 stream      : " << cold.v3_stream_mb_s << " MB/s\n"
            << "  v3 mmap attach : " << cold.v3_mmap_attach_mb_s << " MB/s ("
            << cold.v3_mmap_attach_secs * 1e3 << " ms)\n"
            << "  mmap vs v3 stream speedup: " << cold.mmap_vs_stream_speedup
            << "x\n";

  const CacheResult cache = run_cache(cfg);
  std::cout << "cache (" << cfg.cache_workers << " workers, 2 keys, "
            << cfg.cache_loader_secs << " s loader)\n"
            << "  loader invocations : " << cache.loader_invocations << "\n"
            << "  duplicate loads    : " << cache.duplicate_loads << "\n"
            << "  hits               : " << cache.hits << "\n"
            << "  wall               : " << cache.wall_secs << " s\n"
            << "  concurrency ratio  : " << cache.concurrency_ratio << "\n";

  JsonObject config_json;
  config_json
      .add("build_chromosomes", static_cast<u64>(cfg.build_chromosomes))
      .add("build_chromosome_length",
           static_cast<u64>(cfg.build_chromosome_length))
      .add("build_passes", static_cast<u64>(cfg.build_passes))
      .add("load_passes", static_cast<u64>(cfg.load_passes))
      .add("cache_workers", static_cast<u64>(cfg.cache_workers))
      .add("cache_loader_secs", cfg.cache_loader_secs)
      .add("hardware_threads",
           static_cast<u64>(std::thread::hardware_concurrency()));
  JsonObject build_json;
  build_json.add("secs_1t", build.secs_1t)
      .add("secs_2t", build.secs_2t)
      .add("secs_4t", build.secs_4t)
      .add("secs_8t", build.secs_8t)
      .add("speedup_4t", build.speedup_4t)
      .add("text_bytes", build.text_bytes);
  JsonObject cold_json;
  cold_json.add("file_mb_v3", cold.file_mb_v3)
      .add("v3_stream_mb_s", cold.v3_stream_mb_s)
      .add("v3_mmap_attach_mb_s", cold.v3_mmap_attach_mb_s)
      .add("v3_mmap_attach_secs", cold.v3_mmap_attach_secs)
      .add("v3_stream_secs", cold.v3_stream_secs)
      .add("mmap_vs_stream_speedup", cold.mmap_vs_stream_speedup);
  JsonObject cache_json;
  cache_json.add("loader_invocations", cache.loader_invocations)
      .add("duplicate_loads", cache.duplicate_loads)
      .add("hits", cache.hits)
      .add("wall_secs", cache.wall_secs)
      .add("concurrency_ratio", cache.concurrency_ratio);
  JsonObject root;
  root.add("bench", "index_startup")
      .add("schema_version", 4)
      .add("smoke", opts.smoke)
      .add("config", config_json)
      .add("build", build_json)
      .add("cold_load", cold_json)
      .add("cache", cache_json);

  // Two keys, each needing one load: single-flight means no duplicate,
  // and overlapping loads put the concurrency ratio near 2 (<= 1 when
  // serialized). speedup_4t and the concurrency ratio are in-process
  // ratios, so they transfer across machines: >30% below the committed
  // same-box baseline fails. The mmap attach speedup is deliberately NOT
  // baseline-gated: the attach is microseconds, so run-to-run jitter
  // swamps a relative comparison — the absolute >= 5x gate carries that
  // contract where mmap exists.
  std::vector<Gate> gates = {
      recorded("secs_1t"),
      recorded("secs_4t"),
      {"speedup_4t", GateOp::kGe, times_baseline(0.7), true},
      recorded("v3_stream_mb_s"),
      recorded("v3_mmap_attach_mb_s"),
      recorded("mmap_vs_stream_speedup"),
      {"duplicate_loads", GateOp::kEq, constant(0), true},
      {"concurrency_ratio", GateOp::kGe, constant(1.5), true},
      {"concurrency_ratio", GateOp::kGe, times_baseline(0.7)},
  };
  if (MappedFile::supported()) {
    gates.push_back({"mmap_vs_stream_speedup", GateOp::kGe, constant(5.0)});
  }
  return finish_bench(root, opts, gates);
}
