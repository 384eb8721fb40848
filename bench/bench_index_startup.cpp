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
// Flags:
//   --smoke             reduced configuration (CI: the
//                       bench_index_startup_smoke ctest)
//   --out PATH          output JSON path (default BENCH_index_startup.json)
//   --baseline PATH     compare against a committed baseline; exit 1 on
//                       missing schema keys, any duplicate cache load,
//                       mmap attach < 5x the v3 stream load, loads for
//                       distinct keys serializing, or a >30% regression
//                       of the tracked ratios vs the baseline
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

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct StartupConfig {
  usize build_chromosomes = 2;
  usize build_chromosome_length = 500'000;
  usize build_passes = 2;
  usize load_passes = 5;
  usize cache_workers = 8;
  double cache_loader_secs = 0.08;
  bool smoke = false;
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
    IndexParams params;
    params.num_threads = threads;
    double best = 1e30;
    for (usize pass = 0; pass < cfg.build_passes; ++pass) {
      const auto start = std::chrono::steady_clock::now();
      const GenomeIndex index = GenomeIndex::build(assembly, params);
      best = std::min(best, seconds_since(start));
      out.text_bytes = index.text().size();
    }
    return best;
  };
  out.secs_1t = timed_build(1);
  out.secs_2t = timed_build(2);
  out.secs_4t = timed_build(4);
  out.secs_8t = timed_build(8);
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
  const auto timed_load = [&](const std::string& path, IndexLoadMode mode) {
    double best = 1e30;
    for (usize pass = 0; pass < cfg.load_passes; ++pass) {
      const auto start = std::chrono::steady_clock::now();
      const GenomeIndex loaded = GenomeIndex::load_file(path, mode);
      best = std::min(best, seconds_since(start));
      if (loaded.prefix_lut_k() == 0) std::cout << "";  // defeat optimizer
    }
    return best;
  };
  out.v3_stream_secs = timed_load(v3_path, IndexLoadMode::kStream);
  out.v3_mmap_attach_secs =
      MappedFile::supported() ? timed_load(v3_path, IndexLoadMode::kMmap) : 0;

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

int check_results(const std::string& baseline_path, const BuildResult& build,
                  const ColdLoadResult& cold, const CacheResult& cache) {
  static const char* kRequiredKeys[] = {
      "secs_1t",           "secs_4t",
      "speedup_4t",        "v3_stream_mb_s",
      "v3_mmap_attach_mb_s", "mmap_vs_stream_speedup",
      "duplicate_loads",   "concurrency_ratio"};
  const auto baseline = read_json_numbers(baseline_path);
  int failures = 0;
  for (const char* key : kRequiredKeys) {
    if (!baseline.count(key)) {
      std::cerr << "SMOKE FAIL: baseline missing key '" << key << "'\n";
      ++failures;
    }
  }
  if (cache.duplicate_loads != 0) {
    std::cerr << "SMOKE FAIL: duplicate cache loads = "
              << cache.duplicate_loads << " (single-flight demands 0)\n";
    ++failures;
  }
  if (cache.concurrency_ratio < 1.5) {
    std::cerr << "SMOKE FAIL: cache concurrency ratio "
              << cache.concurrency_ratio
              << " < 1.5 (distinct-key loads serialized)\n";
    ++failures;
  }
  if (MappedFile::supported() && cold.mmap_vs_stream_speedup < 5.0) {
    std::cerr << "SMOKE FAIL: mmap attach only " << cold.mmap_vs_stream_speedup
              << "x the v3 stream load (need >= 5x)\n";
    ++failures;
  }
  // >30% regression vs the committed same-box baseline fails. Both are
  // in-process ratios, so they transfer across machines. The mmap attach
  // speedup is deliberately NOT baseline-gated: the attach is
  // microseconds, so run-to-run jitter swamps a relative comparison —
  // the absolute >= 5x gate above carries that contract.
  const double kKeep = 0.7;
  const auto keep = [&](const char* key, double now) {
    if (baseline.count(key) && now < kKeep * baseline.at(key)) {
      std::cerr << "SMOKE FAIL: " << key << " " << now
                << " regressed >30% vs baseline " << baseline.at(key) << "\n";
      ++failures;
    }
  };
  keep("speedup_4t", build.speedup_4t);
  keep("concurrency_ratio", cache.concurrency_ratio);
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  StartupConfig cfg;
  std::string out_path = "BENCH_index_startup.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
      cfg.build_chromosomes = 1;
      cfg.build_chromosome_length = 150'000;
      cfg.build_passes = 1;
      cfg.load_passes = 3;
      // loader sleep stays at the full value: it must dominate the
      // post-sleep tiny-index build for the concurrency ratio to be a
      // clean signal on a one-core box.
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::cerr << "usage: bench_index_startup [--smoke] [--out PATH] "
                   "[--baseline PATH]\n";
      return 2;
    }
  }

  std::cout << "INDEX STARTUP: build / cold load / cache contention"
            << (cfg.smoke ? " (smoke)" : "") << "\n";
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
      .add("smoke", cfg.smoke)
      .add("config", config_json)
      .add("build", build_json)
      .add("cold_load", cold_json)
      .add("cache", cache_json);
  root.write_file(out_path);
  std::cout << "wrote " << out_path << "\n";

  if (!baseline_path.empty()) {
    const int failures = check_results(baseline_path, build, cold, cache);
    if (failures) {
      std::cerr << failures << " smoke check(s) failed\n";
      return 1;
    }
    std::cout << "smoke checks passed vs " << baseline_path << "\n";
  }
  return 0;
}
