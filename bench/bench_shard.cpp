// SHARD — scatter/gather economics of one sample, modeled in the event
// sim (core/shard_sim): sweep sample sizes and FaaS worker counts to find
// where scatter/gather over fn-10gb workers beats one r6a.4xlarge (boot +
// S3 index download + stream load) on latency and on cost. With
// Lambda-style per-GB-second pricing the scatter path wins latency from
// well under 1 GiB but stays above the r6a on cost — the crossover table
// quantifies both.
//
// Emits machine-readable BENCH_shard.json (schema in EXPERIMENTS.md).
//
// Flags (bench_json.h): --smoke (the bench_shard_smoke ctest), --out
// PATH, --baseline PATH (evaluate the gates declared in main; exit 1 on a
// miss). The sweep is deterministic, so --smoke runs the same sweep.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/shard_sim.h"

using namespace staratlas;
using namespace staratlas::bench;

namespace {

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
  std::cout << "SHARD: scatter/gather economics, modeled"
            << (opts.smoke ? " (smoke)" : "") << "\n";

  const SweepResult sweep = run_sweep(kPaperIndexGib111);
  std::cout << "crossover sweep (fn-10gb workers vs r6a.4xlarge, index "
            << kPaperIndexGib111 << " GiB)\n"
            << "  sample   single(s)  single($)   scatter(s)  scatter($)  "
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
      .add("schema_version", 4)
      .add("smoke", opts.smoke)
      .add("sweep", sweep_to_json(sweep));

  const std::vector<Gate> gates = {
      {"latency_crossover_gib", GateOp::kGt, constant(0), true},
      recorded("cost_crossover_gib"),
  };
  return finish_bench(root, opts, gates);
}
