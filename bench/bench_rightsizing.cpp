// RSIZE — instance right-sizing (paper §III.A: "using a much smaller
// index allows us to use smaller and cheaper instances").
//
// For each genome release, every EC2 type in the catalog is checked for
// feasibility (index + working set must fit RAM) and ranked by modeled
// $/sample. The headline: release 111 admits 64 GiB boxes the release-108
// index cannot use, cutting cost per sample.

#include <iostream>

#include "bench_common.h"
#include "core/report.h"
#include "core/rightsizing.h"

using namespace staratlas;
using namespace staratlas::bench;

namespace {

void report_release(int release, double index_gib, double slowdown) {
  RightSizingQuery query;
  query.cloud.genome_release = release;
  query.cloud.index_bytes = ByteSize::from_gib(index_gib);
  query.cloud.stages.release_slowdown_108 = slowdown;
  std::cout << "release " << release << " (index " << index_gib
            << " GiB):\n";
  Table table({"instance", "vCPU", "RAM", "feasible", "sample time",
               "$/sample", "samples/h"});
  for (const auto& option : evaluate_instances(query)) {
    table.add_row(
        {option.type->name, strf("%u", option.type->vcpus),
         option.type->memory.str(), option.feasible ? "yes" : "NO",
         option.feasible ? strf("%.0f s", option.sample_seconds) : "-",
         option.feasible ? strf("$%.3f", option.cost_per_sample_usd) : "-",
         option.feasible ? strf("%.2f", option.samples_per_hour) : "-"});
  }
  table.print(std::cout);
  const auto best = best_option(evaluate_instances(query));
  std::cout << "cheapest feasible: " << best.type->name << " at "
            << strf("$%.3f", best.cost_per_sample_usd) << " per sample\n\n";
}

}  // namespace

int main() {
  // Measure the release-108 slowdown on real alignment once.
  const BenchWorld& w = bench_world();
  const ReadSet reads =
      w.simulator->simulate(bulk_rna_profile(), 4'000, Rng(55));
  const double slowdown = align_reads(w.index108, reads).wall_seconds /
                          align_reads(w.index111, reads).wall_seconds;

  std::cout << "RSIZE: instance right-sizing by genome release\n\n";
  report_release(108, kPaperIndexGib108, slowdown);
  report_release(111, kPaperIndexGib111, slowdown);

  RightSizingQuery q108;
  q108.cloud.genome_release = 108;
  q108.cloud.index_bytes = ByteSize::from_gib(kPaperIndexGib108);
  q108.cloud.stages.release_slowdown_108 = slowdown;
  RightSizingQuery q111;
  q111.cloud.genome_release = 111;
  q111.cloud.index_bytes = ByteSize::from_gib(kPaperIndexGib111);
  const auto best108 = best_option(evaluate_instances(q108));
  const auto best111 = best_option(evaluate_instances(q111));

  Table result({"metric", "paper claim", "measured/modeled"});
  result.add_row({"smaller instances usable with r111 index",
                  "yes (\"smaller and cheaper instances\")",
                  strf("%s (%.0f GiB RAM) vs %s (%.0f GiB RAM)",
                       best111.type->name.c_str(), best111.type->memory.gib(),
                       best108.type->name.c_str(), best108.type->memory.gib())});
  result.add_row({"cost per sample improvement", "not quantified",
                  strf("%.1fx cheaper ($%.3f -> $%.3f)",
                       best108.cost_per_sample_usd / best111.cost_per_sample_usd,
                       best108.cost_per_sample_usd,
                       best111.cost_per_sample_usd)});
  result.print(std::cout);
  return 0;
}
