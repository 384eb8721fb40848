// PLANNER — campaign planner frontier bench (seventh gated perf point).
//
// Enumerates the planner's search space (instance type x thread cap x
// index load path x spot mix) over a deterministic SRA catalog, prints
// the Pareto frontier over (cost, makespan), and replays frontier points
// through the event simulator to measure estimator-vs-sim error — the
// end-to-end check that the closed-form search and the discrete-event
// truth agree where it matters.
//
// Flags (bench_json.h): --smoke (the bench_planner_smoke ctest: an
// instance subset and fewer validated frontier points), --out PATH,
// --baseline PATH (evaluate the gates declared in main; exit 1 on a miss).
//
// Cost and makespan here are MODELED quantities (deterministic closed
// form + seeded event sim), so the gate tolerances are about model drift,
// not machine noise.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/planner.h"
#include "core/report.h"
#include "sim/catalog.h"

using namespace staratlas;
using namespace staratlas::bench;

namespace {

struct PlannerBenchConfig {
  bool smoke = false;
  usize num_samples = 250;
  usize max_validate = 5;
  double deadline_hours = 6.0;
};

const char* load_path_name(IndexLoadPath path) {
  return path == IndexLoadPath::kMmap ? "mmap" : "stream";
}

PlannerQuery build_query(const PlannerBenchConfig& cfg) {
  PlannerQuery query;
  CatalogSpec spec;
  spec.num_samples = cfg.num_samples;
  spec.seed = 61;
  query.catalog = make_catalog(spec);
  query.deadline_hours = cfg.deadline_hours;
  if (cfg.smoke) {
    // A memory-diverse subset (including one infeasible 32 GiB type) so
    // the smoke run exercises feasibility, ranking and validation fast.
    query.instance_names = {"r6a.2xlarge", "r6a.4xlarge", "r6a.8xlarge",
                            "m6a.4xlarge", "c6a.4xlarge", "c6a.8xlarge"};
  }
  query.thread_choices = {0, 16};
  return query;
}

/// Frontier invariant: cost strictly ascends, makespan strictly descends.
bool frontier_monotone(const PlannerResult& result) {
  for (usize i = 1; i < result.frontier.size(); ++i) {
    const PlanCandidate& prev = result.candidates[result.frontier[i - 1]];
    const PlanCandidate& cur = result.candidates[result.frontier[i]];
    if (cur.est_cost_usd() < prev.est_cost_usd()) return false;
    if (cur.est_makespan_hours() >= prev.est_makespan_hours()) return false;
  }
  return true;
}

struct BenchOutcome {
  usize num_candidates = 0;
  usize num_feasible = 0;
  usize frontier_size = 0;
  bool monotone = false;
  bool best_found = false;
  std::string best_instance;
  u32 best_threads = 0;
  std::string best_load_path;
  double best_spot_mix = 0.0;
  double best_cost_usd = 0.0;
  double best_makespan_hours = 0.0;
  usize validated_points = 0;
  double max_makespan_rel_error = 0.0;
  double max_cost_rel_error = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "planner");
  PlannerBenchConfig cfg;
  if (opts.smoke) {
    // The planner and sim run in virtual time (milliseconds of wall
    // clock), so smoke keeps the full catalog — the reduction is the
    // instance subset and the validation count.
    cfg.smoke = true;
    cfg.max_validate = 3;
  }

  const PlannerQuery query = build_query(cfg);
  std::cout << "PLANNER: campaign planner frontier, " << cfg.num_samples
            << " samples, deadline " << cfg.deadline_hours << " h"
            << (cfg.smoke ? " (smoke)" : "") << "\n\n";

  PlannerResult result = plan_campaign(query);
  validate_frontier(query, result, cfg.max_validate);

  BenchOutcome outcome;
  outcome.num_candidates = result.candidates.size();
  for (const PlanCandidate& candidate : result.candidates) {
    if (candidate.feasible) ++outcome.num_feasible;
  }
  outcome.frontier_size = result.frontier.size();
  outcome.monotone = frontier_monotone(result);

  Table frontier_table({"instance", "threads", "load", "spot", "est cost",
                        "est makespan", "sim cost", "sim makespan",
                        "cost err", "mksp err"});
  for (usize i = 0; i < result.frontier.size(); ++i) {
    const PlanCandidate& candidate = result.candidates[result.frontier[i]];
    const FrontierValidation* validation = nullptr;
    for (const FrontierValidation& v : result.validations) {
      if (v.candidate_index == result.frontier[i]) validation = &v;
    }
    frontier_table.add_row(
        {candidate.instance, strf("%u", candidate.threads),
         load_path_name(candidate.load_path),
         strf("%.0f%%", 100.0 * candidate.spot_mix),
         strf("$%.2f", candidate.est_cost_usd()),
         strf("%.2f h", candidate.est_makespan_hours()),
         validation ? strf("$%.2f", validation->sim_cost_usd) : "-",
         validation ? strf("%.2f h", validation->sim_makespan_hours) : "-",
         validation ? strf("%.1f%%", 100.0 * validation->cost_rel_error) : "-",
         validation ? strf("%.1f%%", 100.0 * validation->makespan_rel_error)
                    : "-"});
  }
  std::cout << "Pareto frontier (" << outcome.frontier_size << " of "
            << outcome.num_feasible << " feasible candidates, "
            << outcome.num_candidates << " searched):\n";
  frontier_table.print(std::cout);

  outcome.validated_points = result.validations.size();
  for (const FrontierValidation& validation : result.validations) {
    outcome.max_makespan_rel_error =
        std::max(outcome.max_makespan_rel_error,
                 validation.makespan_rel_error);
    outcome.max_cost_rel_error =
        std::max(outcome.max_cost_rel_error, validation.cost_rel_error);
  }

  if (result.best) {
    const PlanCandidate& best = result.candidates[*result.best];
    outcome.best_found = true;
    outcome.best_instance = best.instance;
    outcome.best_threads = best.threads;
    outcome.best_load_path = load_path_name(best.load_path);
    outcome.best_spot_mix = best.spot_mix;
    outcome.best_cost_usd = best.est_cost_usd();
    outcome.best_makespan_hours = best.est_makespan_hours();
    std::cout << "\nbest under deadline: " << best.instance << " threads="
              << best.threads << " load=" << outcome.best_load_path
              << " spot=" << strf("%.0f%%", 100.0 * best.spot_mix) << " at "
              << strf("$%.2f", outcome.best_cost_usd) << ", "
              << strf("%.2f h", outcome.best_makespan_hours) << "\n";
  } else {
    std::cout << "\nno candidate meets the deadline\n";
  }
  std::cout << "estimator vs event sim on " << outcome.validated_points
            << " frontier points: max cost error "
            << strf("%.1f%%", 100.0 * outcome.max_cost_rel_error)
            << ", max makespan error "
            << strf("%.1f%%", 100.0 * outcome.max_makespan_rel_error) << "\n";

  JsonObject config_json;
  config_json.add("num_samples", static_cast<u64>(cfg.num_samples))
      .add("deadline_hours", cfg.deadline_hours)
      .add("max_validate", static_cast<u64>(cfg.max_validate));
  JsonObject frontier_json;
  for (usize i = 0; i < result.frontier.size(); ++i) {
    const PlanCandidate& candidate = result.candidates[result.frontier[i]];
    JsonObject row;
    row.add("instance", candidate.instance)
        .add("threads", static_cast<u64>(candidate.threads))
        .add("load_path", load_path_name(candidate.load_path))
        .add("spot_mix", candidate.spot_mix)
        .add("cost_usd", candidate.est_cost_usd())
        .add("makespan_hours", candidate.est_makespan_hours());
    frontier_json.add("f" + std::to_string(i), row);
  }
  JsonObject results_json;
  results_json.add("num_candidates", static_cast<u64>(outcome.num_candidates))
      .add("num_feasible", static_cast<u64>(outcome.num_feasible))
      .add("frontier_size", static_cast<u64>(outcome.frontier_size))
      .add("frontier_monotone", outcome.monotone)
      .add("best_found", outcome.best_found)
      .add("best_instance", outcome.best_instance)
      .add("best_threads", static_cast<u64>(outcome.best_threads))
      .add("best_load_path", outcome.best_load_path)
      .add("best_load_path_mmap", outcome.best_load_path == "mmap")
      .add("best_spot_mix", outcome.best_spot_mix)
      .add("best_cost_usd", outcome.best_cost_usd)
      .add("best_makespan_hours", outcome.best_makespan_hours)
      .add("validated_points", static_cast<u64>(outcome.validated_points))
      .add("max_makespan_rel_error", outcome.max_makespan_rel_error)
      .add("max_cost_rel_error", outcome.max_cost_rel_error);
  JsonObject root;
  root.add("bench", "planner")
      .add("schema_version", 2)
      .add("smoke", cfg.smoke)
      .add("config", config_json)
      .add("results", results_json)
      .add("frontier", frontier_json);

  // The index-init term is strictly smaller under mmap at equal hourly
  // rate, so the cheapest constrained candidate must attach, not stream.
  // The closed-form estimator ignores queueing and interruption rework, so
  // it is biased low against the event sim, but more than 35% means the
  // two models diverged structurally. Cost is modeled and deterministic:
  // >10% drift either way means the cost model changed without the
  // baseline being regenerated.
  const std::vector<Gate> gates = {
      recorded("num_candidates"),
      {"frontier_size", GateOp::kGt, constant(0), true},
      {"frontier_monotone", GateOp::kEq, constant(1)},
      {"best_found", GateOp::kEq, constant(1)},
      {"best_load_path_mmap", GateOp::kEq, constant(1)},
      {"validated_points", GateOp::kGt, constant(0)},
      {"max_makespan_rel_error", GateOp::kLe, constant(0.35), true},
      {"max_cost_rel_error", GateOp::kLe, constant(0.35), true},
      {"best_cost_usd", GateOp::kGe, times_baseline(0.9), true},
      {"best_cost_usd", GateOp::kLe, times_baseline(1.1)},
      recorded("best_makespan_hours"),
  };
  return finish_bench(root, opts, gates);
}
