// SERVICE — the multi-tenant alignment service under load: fair-share
// scheduling over the shared engine pool, measured end to end.
//
// Four phases, all real work against the bench-scale genome world, all
// attaching the ONE index through a single SharedIndexCache (the cache's
// load counter across the whole bench is the zero-duplicate-loads gate):
//
//   1. Identity: one sample through the service vs AlignmentEngine::run
//      on the same reads — the rendered artifacts (final log with wall
//      pinned, gene counts TSV, junctions TSV) must be BYTE-IDENTICAL.
//   2. Isolated latency: the light tenant alone, sequential submissions;
//      its p50/p99 latency is the interference-free anchor.
//   3. Flood: the heavy tenant keeps a deep backlog queued while the
//      light tenant submits the same samples as phase 2. Fair-share
//      chunk scheduling bounds the interference: light p99 under flood
//      must stay <= 5x its isolated p99.
//   4. Saturation: >= 1050 samples across three tenant profiles
//      (light / medium / heavy — distinct weights and admission caps)
//      submitted concurrently and drained to completion. Aggregate
//      service throughput must stay >= 0.9x a single engine.execute
//      over the identical reads (the scheduler + chunk merges may cost
//      at most 10%).
//
// Emits machine-readable BENCH_service.json (schema in EXPERIMENTS.md),
// the sixth point of the perf trajectory.
//
// Flags:
//   --smoke             reduced configuration (CI: bench_service_smoke)
//   --out PATH          output JSON path (default BENCH_service.json)
//   --baseline PATH     compare against a committed baseline; exit 1 on
//                       missing schema keys, an identity failure, a
//                       duplicate index load, light-p99 interference
//                       > 5x isolated, saturation throughput < 0.9x the
//                       engine, or a >30% throughput-ratio regression
//
// Note on the 1-core box: workers time-slice one CPU, so latencies are
// measured in chunk-times, not wall-parallel time. Every gate is a
// same-run ratio (flood p99 / isolated p99, service rps / engine rps),
// which transfers across machines; min-of-passes (max for rps) is
// reported, the same convention as the other benches.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "common/stats.h"
#include "index/shared_cache.h"
#include "service/artifacts.h"
#include "service/service.h"

using namespace staratlas;
using namespace staratlas::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct ServiceBenchConfig {
  usize workers = 2;
  usize chunk_size = 64;
  usize identity_reads = 3000;
  usize light_reads = 512;       ///< one light sample (phases 2+3)
  usize isolated_samples = 30;   ///< phase 2 submissions
  usize flood_light_samples = 30;
  usize flood_heavy_samples = 16;
  usize heavy_reads = 4096;  ///< one flood-heavy sample
  usize saturation_per_tenant = 350;  ///< x3 tenants >= 1050 submissions
  usize passes = 3;
  bool smoke = false;
};

/// The three tenant profiles: an interactive light tenant with a weight
/// boost and small caps, a medium batch tenant, and a bulk heavy tenant
/// whose caps admit a deep backlog.
ServiceConfig make_service_config(const ServiceBenchConfig& cfg) {
  ServiceConfig config;
  config.engine.num_threads = cfg.workers;
  config.engine.collect_junctions = true;
  config.engine.chunk_size = cfg.chunk_size;
  config.admission.max_total_samples = 4096;
  config.admission.max_total_reads = 64u << 20;
  TenantProfile light;
  light.weight = 2.0;
  light.max_queued_samples = 512;
  light.max_queued_reads = 4u << 20;
  TenantProfile medium;
  medium.weight = 1.0;
  medium.max_queued_samples = 1024;
  medium.max_queued_reads = 16u << 20;
  TenantProfile heavy;
  heavy.weight = 1.0;
  heavy.max_queued_samples = 2048;
  heavy.max_queued_reads = 32u << 20;
  config.tenants["light"] = light;
  config.tenants["medium"] = medium;
  config.tenants["heavy"] = heavy;
  return config;
}

/// Single-flight loader: a v4 save/load round-trip of the bench index
/// (same content, and exercises the packed on-disk path the daemon would
/// really attach).
GenomeIndex load_bench_index() {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  bench_world().index111.save(buf, GenomeIndex::kVersionV4);
  return GenomeIndex::load(buf);
}

SampleSubmission make_submission(const char* tenant, std::string name,
                                 ReadSet reads) {
  SampleSubmission submission;
  submission.tenant = tenant;
  submission.name = std::move(name);
  submission.reads = std::move(reads);
  return submission;
}

struct IdentityResult {
  bool identity_ok = false;
  u64 reads = 0;
};

IdentityResult run_identity(SharedIndexCache& cache,
                            const ServiceBenchConfig& cfg) {
  const BenchWorld& w = bench_world();
  const ReadSet reads =
      w.simulator->simulate(bulk_rna_profile(), cfg.identity_reads, Rng(777));

  auto pin = cache.acquire("bench-index", load_bench_index);
  AlignmentEngine engine(*pin, &w.synthesizer->annotation(),
                         make_service_config(cfg).engine);
  AlignmentRun run = engine.execute({.reads = &reads});
  SampleResult reference;
  reference.total_reads = reads.size();
  u64 bases = 0;
  for (const auto& read : reads.reads) bases += read.sequence.size();
  reference.mean_read_length =
      static_cast<double>(bases) / static_cast<double>(reads.size());
  reference.stats = run.stats;
  reference.gene_counts = run.gene_counts;
  reference.junctions = run.junctions;
  const std::string expect =
      render_sample_artifacts(reference, *pin, &w.synthesizer->annotation());

  AlignmentService service(cache, "bench-index", load_bench_index,
                           &w.synthesizer->annotation(),
                           make_service_config(cfg));
  const SampleResult result =
      service.submit_and_wait(make_submission("medium", "identity", reads));
  service.drain();

  IdentityResult out;
  out.reads = reads.size();
  out.identity_ok =
      render_sample_artifacts(result, *pin, &w.synthesizer->annotation()) ==
      expect;
  return out;
}

struct LatencyResult {
  double p50_ms = 0;
  double p99_ms = 0;
  u64 samples = 0;
};

/// Phase 2: the light tenant alone, sequential — interference-free.
LatencyResult run_isolated(SharedIndexCache& cache,
                           const ServiceBenchConfig& cfg) {
  const BenchWorld& w = bench_world();
  AlignmentService service(cache, "bench-index", load_bench_index,
                           &w.synthesizer->annotation(),
                           make_service_config(cfg));
  for (usize i = 0; i < cfg.isolated_samples; ++i) {
    const ReadSet reads =
        w.simulator->simulate(bulk_rna_profile(), cfg.light_reads, Rng(i + 1));
    service.submit_and_wait(
        make_submission("light", "iso" + std::to_string(i), reads));
  }
  const auto metrics = service.metrics();
  const auto& latencies = metrics.tenants.at("light").latencies;
  service.drain();
  LatencyResult out;
  out.samples = latencies.size();
  out.p50_ms = percentile(latencies, 50.0) * 1e3;
  out.p99_ms = percentile(latencies, 99.0) * 1e3;
  return out;
}

struct FloodResult {
  LatencyResult light;
  u64 heavy_completed = 0;
  u64 heavy_drain_rejected = 0;
};

/// Phase 3: same light samples as phase 2, but against a deep heavy
/// backlog that stays queued the whole time.
FloodResult run_flood(SharedIndexCache& cache, const ServiceBenchConfig& cfg) {
  const BenchWorld& w = bench_world();
  AlignmentService service(cache, "bench-index", load_bench_index,
                           &w.synthesizer->annotation(),
                           make_service_config(cfg));
  std::vector<AlignmentService::Ticket> heavy;
  for (usize i = 0; i < cfg.flood_heavy_samples; ++i) {
    const ReadSet reads =
        w.simulator->simulate(bulk_rna_profile(), cfg.heavy_reads, Rng(i + 50));
    auto ticket = service.submit(
        make_submission("heavy", "flood" + std::to_string(i), reads));
    if (ticket.status != SubmitStatus::kAccepted) {
      std::cerr << "flood heavy submission rejected: "
                << submit_status_name(ticket.status) << "\n";
      std::exit(2);
    }
    heavy.push_back(std::move(ticket));
  }
  for (usize i = 0; i < cfg.flood_light_samples; ++i) {
    const ReadSet reads =
        w.simulator->simulate(bulk_rna_profile(), cfg.light_reads, Rng(i + 1));
    service.submit_and_wait(
        make_submission("light", "iso" + std::to_string(i), reads));
  }
  const auto metrics = service.metrics();
  const auto& latencies = metrics.tenants.at("light").latencies;
  FloodResult out;
  out.light.samples = latencies.size();
  out.light.p50_ms = percentile(latencies, 50.0) * 1e3;
  out.light.p99_ms = percentile(latencies, 99.0) * 1e3;
  // Cut the rest of the backlog loose; in-flight completes, queued is
  // cleanly rejected.
  service.drain();
  for (auto& ticket : heavy) {
    if (ticket.result.get().rejected_at_drain) {
      ++out.heavy_drain_rejected;
    } else {
      ++out.heavy_completed;
    }
  }
  return out;
}

struct SaturationResult {
  u64 submissions = 0;
  u64 reads = 0;
  double engine_secs = 1e30;
  double service_secs = 1e30;
  double engine_reads_per_s = 0;
  double service_reads_per_s = 0;
  double throughput_ratio = 0;
  usize queue_high_water = 0;
  u64 chunks_dispatched = 0;
};

/// Phase 4: >= 1050 concurrent submissions over the three profiles vs
/// one engine.execute over the identical reads.
SaturationResult run_saturation(SharedIndexCache& cache,
                                const ServiceBenchConfig& cfg) {
  const BenchWorld& w = bench_world();
  struct Job {
    const char* tenant;
    ReadSet reads;
  };
  const struct {
    const char* tenant;
    usize reads;
  } kProfiles[] = {{"heavy", 96}, {"medium", 64}, {"light", 32}};
  std::vector<Job> jobs;
  ReadSet combined;
  u64 seed = 9000;
  for (usize i = 0; i < cfg.saturation_per_tenant; ++i) {
    for (const auto& profile : kProfiles) {
      Job job;
      job.tenant = profile.tenant;
      job.reads =
          w.simulator->simulate(bulk_rna_profile(), profile.reads, Rng(seed++));
      combined.reads.insert(combined.reads.end(), job.reads.reads.begin(),
                            job.reads.reads.end());
      jobs.push_back(std::move(job));
    }
  }

  SaturationResult out;
  out.submissions = jobs.size();
  out.reads = combined.reads.size();
  auto pin = cache.acquire("bench-index", load_bench_index);
  for (usize pass = 0; pass < cfg.passes; ++pass) {
    AlignmentEngine engine(*pin, &w.synthesizer->annotation(),
                           make_service_config(cfg).engine);
    auto start = std::chrono::steady_clock::now();
    engine.execute({.reads = &combined});
    out.engine_secs = std::min(out.engine_secs, seconds_since(start));

    AlignmentService service(cache, "bench-index", load_bench_index,
                             &w.synthesizer->annotation(),
                             make_service_config(cfg));
    std::vector<AlignmentService::Ticket> tickets;
    tickets.reserve(jobs.size());
    start = std::chrono::steady_clock::now();
    for (usize j = 0; j < jobs.size(); ++j) {
      auto ticket = service.submit(make_submission(
          jobs[j].tenant, "sat" + std::to_string(j), jobs[j].reads));
      if (ticket.status != SubmitStatus::kAccepted) {
        std::cerr << "saturation submission rejected: "
                  << submit_status_name(ticket.status) << "\n";
        std::exit(2);
      }
      tickets.push_back(std::move(ticket));
    }
    for (auto& ticket : tickets) ticket.result.wait();
    out.service_secs = std::min(out.service_secs, seconds_since(start));
    const auto metrics = service.metrics();
    out.queue_high_water = metrics.queue_high_water;
    out.chunks_dispatched = metrics.chunks_dispatched;
    service.drain();
  }
  out.engine_reads_per_s = static_cast<double>(out.reads) / out.engine_secs;
  out.service_reads_per_s = static_cast<double>(out.reads) / out.service_secs;
  out.throughput_ratio = out.service_reads_per_s / out.engine_reads_per_s;
  return out;
}

struct BenchResults {
  IdentityResult identity;
  LatencyResult isolated;
  FloodResult flood;
  double p99_ratio = 0;
  SaturationResult saturation;
  u64 cache_loads = 0;
  u64 cache_hits = 0;
};

int check_results(const std::string& baseline_path, const BenchResults& r) {
  static const char* kRequiredKeys[] = {
      "identity_ok",       "isolated_p99_ms",     "flood_p99_ms",
      "p99_ratio",         "engine_reads_per_s",  "service_reads_per_s",
      "throughput_ratio",  "cache_loads",         "submissions"};
  const auto baseline = read_json_numbers(baseline_path);
  int failures = 0;
  for (const char* key : kRequiredKeys) {
    if (!baseline.count(key)) {
      std::cerr << "SMOKE FAIL: baseline missing key '" << key << "'\n";
      ++failures;
    }
  }
  if (!r.identity.identity_ok) {
    std::cerr << "SMOKE FAIL: service result is not byte-identical to "
                 "engine.execute\n";
    ++failures;
  }
  if (r.cache_loads != 1) {
    std::cerr << "SMOKE FAIL: index loaded " << r.cache_loads
              << " times across the bench (single-flight cache must load "
                 "exactly once)\n";
    ++failures;
  }
  if (r.p99_ratio > 5.0) {
    std::cerr << "SMOKE FAIL: light-tenant p99 under heavy flood is "
              << r.p99_ratio << "x its isolated p99 (gate: <= 5x)\n";
    ++failures;
  }
  if (r.saturation.throughput_ratio < 0.9) {
    std::cerr << "SMOKE FAIL: saturation throughput is "
              << r.saturation.throughput_ratio
              << "x the single engine.execute (gate: >= 0.9x)\n";
    ++failures;
  }
  // >30% regression of the in-process throughput ratio vs the committed
  // same-box baseline fails (the ratio transfers across machines).
  const double kKeep = 0.7;
  if (baseline.count("throughput_ratio") &&
      r.saturation.throughput_ratio <
          kKeep * baseline.at("throughput_ratio")) {
    std::cerr << "SMOKE FAIL: throughput_ratio "
              << r.saturation.throughput_ratio
              << " regressed >30% vs baseline "
              << baseline.at("throughput_ratio") << "\n";
    ++failures;
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  ServiceBenchConfig cfg;
  std::string out_path = "BENCH_service.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
      cfg.identity_reads = 1500;
      cfg.isolated_samples = 20;
      cfg.flood_light_samples = 20;
      cfg.flood_heavy_samples = 12;
      cfg.passes = 2;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::cerr << "usage: bench_service [--smoke] [--out PATH] "
                   "[--baseline PATH]\n";
      return 2;
    }
  }

  std::cout << "SERVICE: multi-tenant fair-share alignment service"
            << (cfg.smoke ? " (smoke)" : "") << "\n";

  // One cache for the whole bench: every phase's service and the
  // reference engines attach through it, so loads() at the end counts
  // every duplicate load anywhere.
  SharedIndexCache cache(ByteSize::from_gib(8.0));
  BenchResults r;

  r.identity = run_identity(cache, cfg);
  std::cout << "identity (" << r.identity.reads << " reads): "
            << (r.identity.identity_ok ? "OK" : "FAILED") << "\n";

  r.isolated = run_isolated(cache, cfg);
  std::cout << "isolated light tenant (" << r.isolated.samples << " x "
            << cfg.light_reads << " reads): p50 " << r.isolated.p50_ms
            << " ms, p99 " << r.isolated.p99_ms << " ms\n";

  // Min-of-passes on the ratio's numerator: take the best flood p99.
  r.flood = run_flood(cache, cfg);
  for (usize pass = 1; pass < cfg.passes; ++pass) {
    const FloodResult again = run_flood(cache, cfg);
    if (again.light.p99_ms < r.flood.light.p99_ms) r.flood = again;
  }
  r.p99_ratio = r.flood.light.p99_ms / r.isolated.p99_ms;
  std::cout << "flooded light tenant (" << r.flood.light.samples
            << " samples vs " << cfg.flood_heavy_samples << " x "
            << cfg.heavy_reads << "-read heavy backlog): p50 "
            << r.flood.light.p50_ms << " ms, p99 " << r.flood.light.p99_ms
            << " ms (" << r.p99_ratio << "x isolated; gate <= 5x)\n"
            << "  heavy completed " << r.flood.heavy_completed
            << ", drain-rejected " << r.flood.heavy_drain_rejected << "\n";

  r.saturation = run_saturation(cache, cfg);
  std::cout << "saturation (" << r.saturation.submissions
            << " submissions, 3 tenant profiles, " << r.saturation.reads
            << " reads)\n"
            << "  engine.execute     : " << r.saturation.engine_secs << " s ("
            << r.saturation.engine_reads_per_s << " reads/s)\n"
            << "  service            : " << r.saturation.service_secs
            << " s (" << r.saturation.service_reads_per_s << " reads/s)\n"
            << "  throughput ratio   : " << r.saturation.throughput_ratio
            << " (gate >= 0.9)\n"
            << "  queue high water   : " << r.saturation.queue_high_water
            << " samples, " << r.saturation.chunks_dispatched
            << " chunks dispatched\n";

  r.cache_loads = cache.loads();
  r.cache_hits = cache.hits();
  std::cout << "index cache: " << r.cache_loads << " load(s), "
            << r.cache_hits << " hits across every phase\n";

  JsonObject config_json;
  config_json.add("workers", static_cast<u64>(cfg.workers))
      .add("chunk_size", static_cast<u64>(cfg.chunk_size))
      .add("light_reads", static_cast<u64>(cfg.light_reads))
      .add("heavy_reads", static_cast<u64>(cfg.heavy_reads))
      .add("saturation_per_tenant",
           static_cast<u64>(cfg.saturation_per_tenant))
      .add("passes", static_cast<u64>(cfg.passes));
  JsonObject identity_json;
  identity_json.add("identity_ok", static_cast<u64>(r.identity.identity_ok))
      .add("identity_reads", r.identity.reads);
  JsonObject isolated_json;
  isolated_json.add("isolated_samples", r.isolated.samples)
      .add("isolated_p50_ms", r.isolated.p50_ms)
      .add("isolated_p99_ms", r.isolated.p99_ms);
  JsonObject flood_json;
  flood_json.add("flood_samples", r.flood.light.samples)
      .add("flood_p50_ms", r.flood.light.p50_ms)
      .add("flood_p99_ms", r.flood.light.p99_ms)
      .add("p99_ratio", r.p99_ratio)
      .add("heavy_completed", r.flood.heavy_completed)
      .add("heavy_drain_rejected", r.flood.heavy_drain_rejected);
  JsonObject saturation_json;
  saturation_json.add("submissions", r.saturation.submissions)
      .add("saturation_reads", r.saturation.reads)
      .add("engine_secs", r.saturation.engine_secs)
      .add("service_secs", r.saturation.service_secs)
      .add("engine_reads_per_s", r.saturation.engine_reads_per_s)
      .add("service_reads_per_s", r.saturation.service_reads_per_s)
      .add("throughput_ratio", r.saturation.throughput_ratio)
      .add("queue_high_water", static_cast<u64>(r.saturation.queue_high_water))
      .add("chunks_dispatched", r.saturation.chunks_dispatched);
  JsonObject cache_json;
  cache_json.add("cache_loads", r.cache_loads).add("cache_hits", r.cache_hits);
  JsonObject root;
  root.add("bench", "service")
      .add("schema_version", 1)
      .add("smoke", cfg.smoke)
      .add("config", config_json)
      .add("identity", identity_json)
      .add("isolated", isolated_json)
      .add("flood", flood_json)
      .add("saturation", saturation_json)
      .add("cache", cache_json);
  root.write_file(out_path);
  std::cout << "wrote " << out_path << "\n";

  if (!baseline_path.empty()) {
    const int failures = check_results(baseline_path, r);
    if (failures) {
      std::cerr << failures << " smoke check(s) failed\n";
      return 1;
    }
    std::cout << "smoke checks passed vs " << baseline_path << "\n";
  }
  return 0;
}
