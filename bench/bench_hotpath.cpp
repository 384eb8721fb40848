// HOTPATH — the alignment hot-path perf harness and the first point of
// this repo's perf trajectory.
//
// Measures, with real work on the bench-scale genome world:
//   1. single-thread reads/sec through Aligner::align with a reused
//      (warmed) AlignWorkspace vs a fresh workspace per read — the fresh
//      mode reproduces the pre-workspace allocation behavior, so the
//      ratio is the workspace speedup, measured in-process and therefore
//      mostly machine-independent;
//   2. heap allocations per read in both modes (counting operator-new
//      hook; steady state must be 0);
//   3. engine dispatch overhead on small samples: runs/sec with one
//      pooled engine reused across runs vs a freshly constructed engine
//      per run (pre-change behavior: thread spawn + GeneCounter build
//      every run);
//   4. seed-walk work counters on the reused-mode reads: MMP calls and
//      seeds per read (both strands). They are deterministic, so they
//      show a seed-phase change that timing noise would hide; reported,
//      not gated.
//
// Emits machine-readable BENCH_hotpath.json (schema in EXPERIMENTS.md;
// the committed copy is bench/BENCH_hotpath.json).
//
// Flags:
//   --smoke             reduced configuration (CI: the bench_smoke ctest)
//   --out PATH          output JSON path (default BENCH_hotpath.json)
//   --baseline PATH     compare against a committed baseline; exit 1 on
//                       missing schema keys, nonzero steady-state
//                       allocations, or a >30% regression in either
//                       speedup ratio

#include <chrono>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "align/workspace.h"
#include "bench_common.h"
#include "bench_json.h"
#include "common/alloc_counter.h"
#include "sim/catalog.h"

using namespace staratlas;
using namespace staratlas::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct HotpathConfig {
  usize num_reads = 2'000;
  usize passes = 7;  ///< best-of-N to reject scheduler/frequency noise
  usize engine_reads = 32;
  usize engine_threads = 4;
  usize engine_iters = 150;
  bool smoke = false;
};

struct SingleThreadResult {
  double reads_per_sec_reused = 0;
  double reads_per_sec_fresh = 0;
  double allocs_per_read_steady = 0;
  double allocs_per_read_fresh = 0;
  double workspace_speedup = 0;
  double mmp_calls_per_read = 0;
  double seeds_per_read = 0;
};

/// FIG3-shaped workload: bulk RNA-seq reads against the release-111 index
/// plus a repeat-heavy slice against release-108, the mix that made the
/// paper's Fig 3 slow.
SingleThreadResult run_single_thread(const HotpathConfig& cfg) {
  const BenchWorld& w = bench_world();
  const ReadSet reads =
      w.simulator->simulate(bulk_rna_profile(), cfg.num_reads, Rng(93));
  const Aligner aligner(w.index111, AlignerParams{});

  SingleThreadResult out;

  // Fresh mode: workspace + result constructed per read, reproducing the
  // per-read allocation churn of the pre-workspace aligner. Best of N
  // passes: this box's scheduler noise swamps single-pass timings.
  {
    double best_elapsed = 1e30;
    u64 allocs = 0;
    u64 side_effect = 0;
    for (usize pass = 0; pass < cfg.passes; ++pass) {
      const u64 allocs_before = alloc_counter::thread_allocations();
      const auto start = std::chrono::steady_clock::now();
      for (const auto& read : reads.reads) {
        MappingStats work;
        AlignWorkspace ws;
        ReadAlignment result;
        aligner.align(read.sequence, ws, work, result);
        side_effect += result.best_score;
      }
      best_elapsed = std::min(best_elapsed, seconds_since(start));
      allocs = alloc_counter::thread_allocations() - allocs_before;
    }
    out.reads_per_sec_fresh = static_cast<double>(reads.size()) / best_elapsed;
    out.allocs_per_read_fresh =
        static_cast<double>(allocs) / static_cast<double>(reads.size());
    if (side_effect == u64(-1)) std::cout << "";  // defeat optimizer
  }

  // Reused mode: one warmed workspace, reads driven through align_batch in
  // engine-sized chunks — the same shape as the engine's consumer loop, so
  // this measures the production steady state (batched seed phase
  // included). Pass 1 warms the buffers and lanes to the workload's
  // high-water marks; measured passes are steady state.
  {
    constexpr usize kChunk = 256;  // EngineConfig::chunk_size default
    AlignWorkspace ws;
    u64 mmp_calls = 0;
    auto run_pass = [&](MappingStats& work, bool count_calls) {
      u64 acc = 0;
      AlignBatchLanes& lanes = ws.batch;
      for (usize begin = 0; begin < reads.size(); begin += kChunk) {
        const usize end = std::min(begin + kChunk, reads.size());
        const usize count = end - begin;
        lanes.views.clear();
        for (usize r = begin; r < end; ++r) {
          lanes.views.push_back(reads.reads[r].sequence);
        }
        if (lanes.results.size() < count) lanes.results.resize(count);
        aligner.align_batch(lanes.views, ws, work,
                            std::span(lanes.results).first(count));
        for (usize r = 0; r < count; ++r) {
          acc += lanes.results[r].best_score;
        }
        if (count_calls) {
          for (usize s = 0; s < 2 * count; ++s) {
            mmp_calls += lanes.seeds[s].mmp_calls;
          }
        }
      }
      return acc;
    };
    MappingStats warm_work;
    run_pass(warm_work, /*count_calls=*/true);
    const double n = static_cast<double>(reads.size());
    out.mmp_calls_per_read = static_cast<double>(mmp_calls) / n;
    out.seeds_per_read = static_cast<double>(warm_work.seeds_generated) / n;
    double best_elapsed = 1e30;
    u64 allocs = 0;
    u64 side_effect = 0;
    for (usize pass = 0; pass < cfg.passes; ++pass) {
      const u64 allocs_before = alloc_counter::thread_allocations();
      const auto start = std::chrono::steady_clock::now();
      MappingStats work;
      side_effect += run_pass(work, /*count_calls=*/false);
      best_elapsed = std::min(best_elapsed, seconds_since(start));
      allocs = alloc_counter::thread_allocations() - allocs_before;
    }
    out.reads_per_sec_reused = static_cast<double>(reads.size()) / best_elapsed;
    out.allocs_per_read_steady =
        static_cast<double>(allocs) / static_cast<double>(reads.size());
    if (side_effect == u64(-1)) std::cout << "";
  }

  out.workspace_speedup = out.reads_per_sec_reused / out.reads_per_sec_fresh;
  return out;
}

struct EngineResult {
  double runs_per_sec_pooled = 0;
  double runs_per_sec_spawn = 0;
  double dispatch_speedup = 0;
};

/// Engine dispatch overhead at high fan-out: many small samples, the
/// serverless-STAR shape where per-invocation setup dominates.
EngineResult run_engine_dispatch(const HotpathConfig& cfg) {
  const BenchWorld& w = bench_world();
  const ReadSet reads =
      w.simulator->simulate(bulk_rna_profile(), cfg.engine_reads, Rng(94));
  EngineConfig config;
  config.num_threads = cfg.engine_threads;
  // Small chunks so every worker participates even on tiny samples.
  config.chunk_size = (cfg.engine_reads + cfg.engine_threads - 1) /
                      cfg.engine_threads;

  EngineResult out;

  // Pooled: one engine, worker pool and workspaces reused every run.
  {
    AlignmentEngine engine(w.index111, &w.synthesizer->annotation(), config);
    // Warm: spawn pool, build counter, size workspaces.
    engine.execute({.reads = &reads});
    double best_elapsed = 1e30;
    for (usize pass = 0; pass < cfg.passes; ++pass) {
      const auto start = std::chrono::steady_clock::now();
      for (usize i = 0; i < cfg.engine_iters; ++i) {
        engine.execute({.reads = &reads});
      }
      best_elapsed = std::min(best_elapsed, seconds_since(start));
    }
    out.runs_per_sec_pooled =
        static_cast<double>(cfg.engine_iters) / best_elapsed;
  }

  // Spawn: a fresh engine per run — pre-change behavior (threads spawned
  // and GeneCounter rebuilt for every sample).
  {
    double best_elapsed = 1e30;
    for (usize pass = 0; pass < cfg.passes; ++pass) {
      const auto start = std::chrono::steady_clock::now();
      for (usize i = 0; i < cfg.engine_iters; ++i) {
        AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                               config);
        engine.execute({.reads = &reads});
      }
      best_elapsed = std::min(best_elapsed, seconds_since(start));
    }
    out.runs_per_sec_spawn =
        static_cast<double>(cfg.engine_iters) / best_elapsed;
  }

  out.dispatch_speedup = out.runs_per_sec_pooled / out.runs_per_sec_spawn;
  return out;
}

int check_against_baseline(const std::string& baseline_path,
                           const SingleThreadResult& st,
                           const EngineResult& eng) {
  static const char* kRequiredKeys[] = {
      "reads_per_sec_reused", "reads_per_sec_fresh",  "workspace_speedup",
      "allocs_per_read_steady", "runs_per_sec_pooled", "runs_per_sec_spawn",
      "dispatch_speedup"};
  const auto baseline = read_json_numbers(baseline_path);
  int failures = 0;
  for (const char* key : kRequiredKeys) {
    if (!baseline.count(key)) {
      std::cerr << "SMOKE FAIL: baseline missing key '" << key << "'\n";
      ++failures;
    }
  }
  if (st.allocs_per_read_steady != 0) {
    std::cerr << "SMOKE FAIL: steady-state allocations per read = "
              << st.allocs_per_read_steady << " (expected 0)\n";
    ++failures;
  }
  // >30% regression vs the committed baseline fails. Both metrics are
  // in-process ratios, so they transfer across machines.
  const double kKeep = 0.7;
  if (baseline.count("workspace_speedup") &&
      st.workspace_speedup < kKeep * baseline.at("workspace_speedup")) {
    std::cerr << "SMOKE FAIL: workspace_speedup " << st.workspace_speedup
              << " regressed >30% vs baseline "
              << baseline.at("workspace_speedup") << "\n";
    ++failures;
  }
  if (baseline.count("dispatch_speedup") &&
      eng.dispatch_speedup < kKeep * baseline.at("dispatch_speedup")) {
    std::cerr << "SMOKE FAIL: dispatch_speedup " << eng.dispatch_speedup
              << " regressed >30% vs baseline "
              << baseline.at("dispatch_speedup") << "\n";
    ++failures;
  }
  return failures;
}

}  // namespace

/// If the baseline records the seed-commit single-thread throughput
/// (measured on the same machine with the same workload shape), report
/// the end-to-end hot-path speedup against it. Informational only: the
/// absolute number does not transfer across machines, so it is not a
/// smoke gate.
double prechange_speedup(const std::string& baseline_path,
                         const SingleThreadResult& st) {
  if (baseline_path.empty()) return 0;
  const auto baseline = read_json_numbers(baseline_path);
  const auto it = baseline.find("prechange_reads_per_sec");
  if (it == baseline.end() || it->second <= 0) return 0;
  return st.reads_per_sec_reused / it->second;
}

int main(int argc, char** argv) {
  HotpathConfig cfg;
  std::string out_path = "BENCH_hotpath.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
      cfg.num_reads = 400;
      cfg.passes = 3;
      cfg.engine_iters = 25;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::cerr << "usage: bench_hotpath [--smoke] [--out PATH] "
                   "[--baseline PATH]\n";
      return 2;
    }
  }

  std::cout << "HOTPATH: allocation-free alignment hot path"
            << (cfg.smoke ? " (smoke)" : "") << "\n";

  const SingleThreadResult st = run_single_thread(cfg);
  std::cout << "single-thread (" << cfg.num_reads << " reads, FIG3 shape)\n"
            << "  reads/sec reused-workspace : " << st.reads_per_sec_reused
            << "\n  reads/sec fresh-workspace  : " << st.reads_per_sec_fresh
            << "\n  workspace speedup          : " << st.workspace_speedup
            << "x\n  allocs/read fresh          : " << st.allocs_per_read_fresh
            << "\n  allocs/read steady state   : " << st.allocs_per_read_steady
            << "\n  MMP calls/read (counter)   : " << st.mmp_calls_per_read
            << "\n  seeds/read (counter)       : " << st.seeds_per_read
            << "\n";

  const EngineResult eng = run_engine_dispatch(cfg);
  std::cout << "engine dispatch (" << cfg.engine_reads << " reads x "
            << cfg.engine_iters << " runs, " << cfg.engine_threads
            << " threads)\n"
            << "  runs/sec pooled engine     : " << eng.runs_per_sec_pooled
            << "\n  runs/sec fresh engine      : " << eng.runs_per_sec_spawn
            << "\n  dispatch speedup           : " << eng.dispatch_speedup
            << "x\n";

  JsonObject config_json;
  config_json.add("num_reads", static_cast<u64>(cfg.num_reads))
      .add("engine_reads", static_cast<u64>(cfg.engine_reads))
      .add("engine_threads", static_cast<u64>(cfg.engine_threads))
      .add("engine_iters", static_cast<u64>(cfg.engine_iters));
  const double vs_prechange = prechange_speedup(baseline_path, st);
  if (vs_prechange > 0) {
    std::cout << "  speedup vs pre-change      : " << vs_prechange << "x\n";
  }

  JsonObject single_json;
  single_json.add("reads_per_sec_reused", st.reads_per_sec_reused)
      .add("reads_per_sec_fresh", st.reads_per_sec_fresh)
      .add("workspace_speedup", st.workspace_speedup)
      .add("allocs_per_read_fresh", st.allocs_per_read_fresh)
      .add("allocs_per_read_steady", st.allocs_per_read_steady)
      .add("mmp_calls_per_read", st.mmp_calls_per_read)
      .add("seeds_per_read", st.seeds_per_read);
  if (vs_prechange > 0) {
    single_json.add("speedup_vs_prechange", vs_prechange);
  }
  JsonObject engine_json;
  engine_json.add("runs_per_sec_pooled", eng.runs_per_sec_pooled)
      .add("runs_per_sec_spawn", eng.runs_per_sec_spawn)
      .add("dispatch_speedup", eng.dispatch_speedup);
  JsonObject root;
  root.add("bench", "hotpath")
      .add("schema_version", 4)
      .add("smoke", cfg.smoke)
      .add("config", config_json)
      .add("single_thread", single_json)
      .add("engine", engine_json);
  root.write_file(out_path);
  std::cout << "wrote " << out_path << "\n";

  if (!baseline_path.empty()) {
    const int failures = check_against_baseline(baseline_path, st, eng);
    if (failures) {
      std::cerr << failures << " smoke check(s) failed\n";
      return 1;
    }
    std::cout << "smoke checks passed vs " << baseline_path << "\n";
  }
  return 0;
}
