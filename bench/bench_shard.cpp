// SHARD — scatter/gather alignment of one sample, measured and modeled.
//
// Two halves:
//   1. Real work: one bench-scale sample aligned unsharded vs scattered
//      over N in-process shard workers (align_sharded). The merged result
//      must be BYTE-IDENTICAL to the unsharded run — gene counts TSV,
//      junctions TSV, progress log, final log with pinned wall time —
//      and the bench reports the scatter speedup and per-shard
//      efficiency on this box.
//   2. Event-sim economics (core/shard_sim): sweep sample sizes and FaaS
//      worker counts to find where scatter/gather over fn-10gb workers
//      beats one r6a.4xlarge (boot + S3 index download + stream load) on
//      latency and on cost. With Lambda-style per-GB-second pricing the
//      scatter path wins latency from well under 1 GiB but stays above
//      the r6a on cost — the crossover table quantifies both.
//
// Emits machine-readable BENCH_shard.json (schema in EXPERIMENTS.md).
//
// Flags (bench_json.h): --smoke (the bench_shard_smoke ctest), --out
// PATH, --baseline PATH (evaluate the gates declared in main; exit 1 on a
// miss).
//
// Note on the measured speedup: on a single-core box the shard workers
// time-slice one CPU, so the scatter speedup sits near 1x and the
// efficiency near 1/num_shards — reported honestly (best-of-N passes)
// and gated only against the committed same-box baseline, never against
// an absolute multi-core expectation. Byte identity is the hard gate.

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "align/final_log.h"
#include "align/junctions.h"
#include "align/run_request.h"
#include "align/sharded.h"
#include "bench_common.h"
#include "bench_json.h"
#include "core/shard_sim.h"
#include "io/fastq.h"

using namespace staratlas;
using namespace staratlas::bench;

namespace {

struct ShardBenchConfig {
  usize reads = 10'000;
  usize num_shards = 4;
  usize threads_per_shard = 1;
  usize passes = 3;
};

struct MeasuredResult {
  bool identity_ok = false;
  u64 reads = 0;
  double unsharded_secs = 0;
  double sharded_secs = 0;
  double sharded_reads_per_s = 0;
  double speedup = 0;
  double scatter_efficiency = 0;  ///< speedup / num_shards
};

/// Every deterministic artifact of a run, rendered to one string; the
/// sharded/unsharded comparison is byte equality of this (wall pinned).
std::string render_artifacts(AlignmentRun run, u64 total_reads) {
  const BenchWorld& w = bench_world();
  run.wall_seconds = 0.0;
  std::string out = render_final_log(run, total_reads, 100.0);
  out += run.progress_log.render();
  std::ostringstream counts;
  run.gene_counts.write_tsv(counts, w.synthesizer->annotation());
  out += counts.str();
  std::ostringstream sj;
  write_junctions_tsv(sj, run.junctions, w.index111);
  out += sj.str();
  return out;
}

MeasuredResult run_measured(const ShardBenchConfig& cfg) {
  const BenchWorld& w = bench_world();
  const ReadSet reads =
      w.simulator->simulate(bulk_rna_profile(), cfg.reads, Rng(90210));
  std::ostringstream fastq_stream;
  write_fastq(fastq_stream, reads.reads);
  const std::string fastq = fastq_stream.str();

  ShardedConfig config;
  config.engine.num_threads = cfg.threads_per_shard;
  config.engine.collect_junctions = true;
  config.engine.progress_check_interval = cfg.reads / 10;
  config.num_shards = cfg.num_shards;

  MeasuredResult out;
  out.reads = cfg.reads;
  AlignmentRun reference;
  ShardedRun sharded;
  const auto [unsharded_secs, sharded_secs] = interleaved_best_of(
      cfg.passes,
      [&] {
        const auto start = std::chrono::steady_clock::now();
        reference = align_unsharded_reference(
            fastq, w.index111, &w.synthesizer->annotation(), config);
        return seconds_since(start);
      },
      [&] {
        // Scatter/gather through the unified run-request entrypoint, same
        // path the CLI takes for --shards.
        const auto start = std::chrono::steady_clock::now();
        {
          AlignmentEngine engine(w.index111, &w.synthesizer->annotation(),
                                 config.engine);
          EngineRunRequest request;
          request.fastq_text = fastq;
          request.num_shards = config.num_shards;
          request.sharded_out = &sharded;
          sharded.merged = engine.execute(request);
        }
        return seconds_since(start);
      });
  out.unsharded_secs = unsharded_secs;
  out.sharded_secs = sharded_secs;

  out.identity_ok =
      render_artifacts(sharded.merged, sharded.plan.total_reads) ==
      render_artifacts(reference, cfg.reads);
  out.sharded_reads_per_s = static_cast<double>(cfg.reads) / out.sharded_secs;
  out.speedup = out.unsharded_secs / out.sharded_secs;
  out.scatter_efficiency =
      out.speedup / static_cast<double>(cfg.num_shards);
  return out;
}

struct SweepRow {
  double sample_gib = 0;
  double single_secs = 0;
  double single_usd = 0;
  double scatter_secs = 0;  ///< best over worker counts (min makespan)
  double scatter_usd = 0;   ///< cost of that same best-latency config
  usize scatter_workers = 0;
};

struct SweepResult {
  std::vector<SweepRow> rows;
  double latency_crossover_gib = -1;  ///< first size scatter wins latency
  double cost_crossover_gib = -1;     ///< first size scatter wins cost
};

SweepResult run_sweep(double index_gib) {
  const double kSampleGib[] = {0.5, 1, 2, 4, 8, 16, 32, 64};
  const usize kWorkers[] = {16, 32, 64, 128};
  SweepResult out;
  for (const double gib : kSampleGib) {
    SingleInstanceQuery single;
    single.sample_fastq = ByteSize::from_gib(gib);
    single.cloud.index_bytes = ByteSize::from_gib(index_gib);
    single.instance = instance_type("r6a.4xlarge");
    const SingleInstanceResult baseline = simulate_single_instance(single);

    SweepRow row;
    row.sample_gib = gib;
    row.single_secs = baseline.makespan.secs();
    row.single_usd = baseline.cost_usd;
    for (const usize workers : kWorkers) {
      ScatterGatherQuery query;
      query.sample_fastq = ByteSize::from_gib(gib);
      query.cloud.index_bytes = ByteSize::from_gib(index_gib);
      query.num_workers = workers;
      query.worker = faas_class("fn-10gb");
      const ScatterGatherResult result = simulate_scatter_gather(query);
      if (!result.feasible) continue;
      if (row.scatter_workers == 0 ||
          result.makespan.secs() < row.scatter_secs) {
        row.scatter_secs = result.makespan.secs();
        row.scatter_usd = result.cost_usd;
        row.scatter_workers = workers;
      }
    }
    if (out.latency_crossover_gib < 0 && row.scatter_secs < row.single_secs) {
      out.latency_crossover_gib = gib;
    }
    if (out.cost_crossover_gib < 0 && row.scatter_usd < row.single_usd) {
      out.cost_crossover_gib = gib;
    }
    out.rows.push_back(row);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "shard");
  ShardBenchConfig cfg;
  if (opts.smoke) {
    cfg.reads = 3'000;
    cfg.passes = 2;
  }

  std::cout << "SHARD: scatter/gather alignment, measured + modeled"
            << (opts.smoke ? " (smoke)" : "") << "\n";

  const MeasuredResult measured = run_measured(cfg);
  std::cout << "measured (" << measured.reads << " reads, "
            << cfg.num_shards << " shards x " << cfg.threads_per_shard
            << " thread)\n"
            << "  byte identity      : "
            << (measured.identity_ok ? "OK" : "FAILED") << "\n"
            << "  unsharded          : " << measured.unsharded_secs << " s\n"
            << "  sharded            : " << measured.sharded_secs << " s ("
            << measured.sharded_reads_per_s << " reads/s)\n"
            << "  speedup            : " << measured.speedup << "x\n"
            << "  scatter efficiency : " << measured.scatter_efficiency
            << "\n";

  const auto print_sweep = [](const SweepResult& sweep) {
    std::cout << "  sample   single(s)  single($)   scatter(s)  scatter($)  "
                 "workers\n";
    for (const SweepRow& row : sweep.rows) {
      std::printf("  %5.1fG  %9.1f  %9.4f   %9.1f  %9.4f  %7zu\n",
                  row.sample_gib, row.single_secs, row.single_usd,
                  row.scatter_secs, row.scatter_usd, row.scatter_workers);
    }
    std::cout << "  latency crossover: "
              << (sweep.latency_crossover_gib > 0
                      ? std::to_string(sweep.latency_crossover_gib) + " GiB"
                      : "none")
              << "\n  cost crossover: "
              << (sweep.cost_crossover_gib > 0
                      ? std::to_string(sweep.cost_crossover_gib) + " GiB"
                      : "none (per-GB-second pricing stays above r6a)")
              << "\n";
  };

  const SweepResult sweep = run_sweep(kPaperIndexGib111);
  std::cout << "crossover sweep (fn-10gb workers vs r6a.4xlarge, index "
            << kPaperIndexGib111 << " GiB)\n";
  print_sweep(sweep);


  JsonObject config_json;
  config_json.add("reads", static_cast<u64>(cfg.reads))
      .add("num_shards", static_cast<u64>(cfg.num_shards))
      .add("threads_per_shard", static_cast<u64>(cfg.threads_per_shard))
      .add("passes", static_cast<u64>(cfg.passes));
  JsonObject measured_json;
  measured_json.add("identity_ok", static_cast<u64>(measured.identity_ok))
      .add("unsharded_secs", measured.unsharded_secs)
      .add("sharded_secs", measured.sharded_secs)
      .add("sharded_reads_per_s", measured.sharded_reads_per_s)
      .add("speedup", measured.speedup)
      .add("scatter_efficiency", measured.scatter_efficiency);
  const auto sweep_to_json = [](const SweepResult& swept) {
    JsonObject json;
    json.add("latency_crossover_gib", swept.latency_crossover_gib)
        .add("cost_crossover_gib", swept.cost_crossover_gib);
    for (const SweepRow& row : swept.rows) {
      // Stable per-size key prefix: "g0p5", "g1", ... (flat-parser safe).
      std::string label = std::to_string(row.sample_gib);
      label.erase(label.find_last_not_of('0') + 1);
      if (!label.empty() && label.back() == '.') label.pop_back();
      for (auto& c : label) {
        if (c == '.') c = 'p';
      }
      JsonObject row_json;
      row_json.add("single_secs", row.single_secs)
          .add("single_usd", row.single_usd)
          .add("scatter_secs", row.scatter_secs)
          .add("scatter_usd", row.scatter_usd)
          .add("scatter_workers", static_cast<u64>(row.scatter_workers));
      json.add("g" + label, row_json);
    }
    return json;
  };
  JsonObject root;
  root.add("bench", "shard")
      .add("schema_version", 3)
      .add("smoke", opts.smoke)
      .add("config", config_json)
      .add("measured", measured_json)
      .add("sweep", sweep_to_json(sweep));

  // Byte identity is the hard gate. The efficiency is an in-process
  // ratio, so it transfers across machines: >30% below the committed
  // same-box baseline fails.
  const std::vector<Gate> gates = {
      {"identity_ok", GateOp::kEq, constant(1), true},
      recorded("speedup"),
      {"scatter_efficiency", GateOp::kGe, times_baseline(0.7), true},
      recorded("sharded_reads_per_s"),
      {"latency_crossover_gib", GateOp::kGt, constant(0), true},
      recorded("cost_crossover_gib"),
  };
  return finish_bench(root, opts, gates);
}
