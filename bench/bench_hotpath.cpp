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
//   4. work counters on the reused-mode reads: MMP calls, seeds (both
//      strands) and bases compared per read. They are deterministic, so
//      they show a seed-phase change that timing noise would hide.
//
// Emits machine-readable BENCH_hotpath.json (schema in EXPERIMENTS.md;
// the committed copy is bench/BENCH_hotpath.json).
//
// Flags (bench_json.h): --smoke (the bench_smoke ctest), --out PATH,
// --baseline PATH (evaluate the gates declared in main; exit 1 on a miss).

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

struct HotpathConfig {
  usize num_reads = 2'000;
  usize passes = 7;  ///< best-of-N to reject scheduler/frequency noise
  usize engine_reads = 32;
  usize engine_threads = 4;
  usize engine_iters = 150;
};

struct SingleThreadResult {
  double reads_per_sec_reused = 0;
  double reads_per_sec_fresh = 0;
  double allocs_per_read_steady = 0;
  double allocs_per_read_fresh = 0;
  double workspace_speedup = 0;
  double mmp_calls_per_read = 0;
  double seeds_per_read = 0;
  double bases_compared_per_read = 0;
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
  const double n = static_cast<double>(reads.size());

  // Reused mode: one warmed workspace, reads driven through align_batch in
  // engine-sized chunks — the same shape as the engine's consumer loop, so
  // this measures the production steady state (batched seed phase
  // included). The warm pass grows the buffers and lanes to the workload's
  // high-water marks and takes the work counters; timed passes are steady
  // state.
  constexpr usize kChunk = 256;  // EngineConfig::chunk_size default
  AlignWorkspace ws;
  u64 mmp_calls = 0;
  u64 side_effect = 0;
  const auto run_pass = [&](MappingStats& work, bool count_calls) {
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
        side_effect += lanes.results[r].best_score;
      }
      if (count_calls) {
        for (usize s = 0; s < 2 * count; ++s) {
          mmp_calls += lanes.seeds[s].mmp_calls;
        }
      }
    }
  };
  MappingStats warm_work;
  run_pass(warm_work, /*count_calls=*/true);
  out.mmp_calls_per_read = static_cast<double>(mmp_calls) / n;
  out.seeds_per_read = static_cast<double>(warm_work.seeds_generated) / n;
  out.bases_compared_per_read =
      static_cast<double>(warm_work.bases_compared) / n;

  // Fresh mode: workspace + result constructed per read, reproducing the
  // per-read allocation churn of the pre-workspace aligner. Allocations
  // are counted over each side's last timed pass.
  const auto fresh = [&] {
    const u64 allocs_before = alloc_counter::thread_allocations();
    const auto start = std::chrono::steady_clock::now();
    for (const auto& read : reads.reads) {
      MappingStats work;
      AlignWorkspace fresh_ws;
      ReadAlignment result;
      aligner.align(read.sequence, fresh_ws, work, result);
      side_effect += result.best_score;
    }
    const double secs = seconds_since(start);
    out.allocs_per_read_fresh =
        static_cast<double>(alloc_counter::thread_allocations() -
                            allocs_before) / n;
    return secs;
  };
  const auto reused = [&] {
    const u64 allocs_before = alloc_counter::thread_allocations();
    const auto start = std::chrono::steady_clock::now();
    MappingStats work;
    run_pass(work, /*count_calls=*/false);
    const double secs = seconds_since(start);
    out.allocs_per_read_steady =
        static_cast<double>(alloc_counter::thread_allocations() -
                            allocs_before) / n;
    return secs;
  };
  const auto [fresh_secs, reused_secs] =
      interleaved_best_of(cfg.passes, fresh, reused);
  out.reads_per_sec_fresh = n / fresh_secs;
  out.reads_per_sec_reused = n / reused_secs;
  if (side_effect == u64(-1)) std::cout << "";  // defeat optimizer

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

  // Pooled: one engine, worker pool and workspaces reused every run,
  // warmed first (pool spawned, counter built, workspaces sized). Spawn:
  // a fresh engine per run — pre-change behavior (threads spawned and
  // GeneCounter rebuilt for every sample).
  AlignmentEngine pooled(w.index111, &w.synthesizer->annotation(), config);
  pooled.execute({.reads = &reads});
  const auto [pooled_secs, spawn_secs] = interleaved_best_of(
      cfg.passes,
      [&] {
        const auto start = std::chrono::steady_clock::now();
        for (usize i = 0; i < cfg.engine_iters; ++i) {
          pooled.execute({.reads = &reads});
        }
        return seconds_since(start);
      },
      [&] {
        const auto start = std::chrono::steady_clock::now();
        for (usize i = 0; i < cfg.engine_iters; ++i) {
          AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                                 config);
          engine.execute({.reads = &reads});
        }
        return seconds_since(start);
      });
  const double iters = static_cast<double>(cfg.engine_iters);
  out.runs_per_sec_pooled = iters / pooled_secs;
  out.runs_per_sec_spawn = iters / spawn_secs;
  out.dispatch_speedup = out.runs_per_sec_pooled / out.runs_per_sec_spawn;
  return out;
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
  const BenchOptions opts = parse_bench_options(argc, argv, "hotpath");
  HotpathConfig cfg;
  if (opts.smoke) {
    cfg.num_reads = 400;
    cfg.passes = 3;
    cfg.engine_iters = 25;
  }

  std::cout << "HOTPATH: allocation-free alignment hot path"
            << (opts.smoke ? " (smoke)" : "") << "\n";

  const SingleThreadResult st = run_single_thread(cfg);
  std::cout << "single-thread (" << cfg.num_reads << " reads, FIG3 shape)\n"
            << "  reads/sec reused-workspace : " << st.reads_per_sec_reused
            << "\n  reads/sec fresh-workspace  : " << st.reads_per_sec_fresh
            << "\n  workspace speedup          : " << st.workspace_speedup
            << "x\n  allocs/read fresh          : " << st.allocs_per_read_fresh
            << "\n  allocs/read steady state   : " << st.allocs_per_read_steady
            << "\n  MMP calls/read (counter)   : " << st.mmp_calls_per_read
            << "\n  seeds/read (counter)       : " << st.seeds_per_read
            << "\n  bases compared/read        : "
            << st.bases_compared_per_read << "\n";

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
  const double vs_prechange = prechange_speedup(opts.baseline_path, st);
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
      .add("seeds_per_read", st.seeds_per_read)
      .add("bases_compared_per_read", st.bases_compared_per_read);
  if (vs_prechange > 0) {
    single_json.add("speedup_vs_prechange", vs_prechange);
  }
  JsonObject engine_json;
  engine_json.add("runs_per_sec_pooled", eng.runs_per_sec_pooled)
      .add("runs_per_sec_spawn", eng.runs_per_sec_spawn)
      .add("dispatch_speedup", eng.dispatch_speedup);
  JsonObject root;
  root.add("bench", "hotpath")
      .add("schema_version", 5)
      .add("smoke", opts.smoke)
      .add("config", config_json)
      .add("single_thread", single_json)
      .add("engine", engine_json);

  // Both speedups are in-process ratios, so they transfer across
  // machines: >30% below the committed baseline fails.
  std::vector<Gate> gates = {
      recorded("reads_per_sec_reused"),
      recorded("reads_per_sec_fresh"),
      {"workspace_speedup", GateOp::kGe, times_baseline(0.7), true},
      {"allocs_per_read_steady", GateOp::kEq, constant(0), true},
      recorded("runs_per_sec_pooled"),
      recorded("runs_per_sec_spawn"),
      {"dispatch_speedup", GateOp::kGe, times_baseline(0.7), true},
  };
  // The work counters are exact, so they gate at the baseline's own
  // value: fewer MMP calls or bases compared is a win to re-record, and
  // any change in seeds is a behaviour change. The baseline records them
  // at the --smoke configuration (400 reads, Rng(93)), so they are
  // declared only under --smoke: a run of another configuration is never
  // compared against them.
  if (opts.smoke) {
    gates.push_back({"mmp_calls_per_read", GateOp::kLe, times_baseline(1), true});
    gates.push_back({"seeds_per_read", GateOp::kEq, times_baseline(1), true});
    gates.push_back(
        {"bases_compared_per_read", GateOp::kLe, times_baseline(1), true});
  }
  return finish_bench(root, opts, gates);
}
