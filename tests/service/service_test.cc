// AlignmentService end-to-end: byte-identity against AlignmentEngine::run
// at every chunk boundary (in process and over RPC), multi-tenant
// completion, resident read memory, backpressure, fairness under flood,
// graceful drain, and the shared-index-cache single-load/pinning contract.
#include "service/service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "align/final_log.h"
#include "align/run_request.h"
#include "common/error.h"
#include "common/rng.h"
#include "index/shared_cache.h"
#include "service/artifacts.h"
#include "service/rpc.h"
#include "sim/library_profile.h"
#include "sim/read_simulator.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::fastq_text;
using staratlas::testing::world;

std::shared_ptr<const GenomeIndex> world_index() {
  // Aliasing shared_ptr: the test world outlives every service here.
  return {std::shared_ptr<const GenomeIndex>(), &world().index111};
}

ServiceConfig small_config(usize workers, usize chunk) {
  ServiceConfig config;
  config.engine.num_threads = workers;
  config.engine.collect_junctions = true;
  config.engine.chunk_size = chunk;
  return config;
}

/// The engine's reference artifacts for `reads`, rendered through the
/// same artifact path the service responses use.
std::string reference_artifacts(const ReadSet& reads,
                                const EngineConfig& engine_config,
                                AlignmentRun* run_out = nullptr) {
  AlignmentEngine engine(world().index111, &world().synthesizer->annotation(),
                         engine_config);
  AlignmentRun run = engine.execute({.reads = &reads});
  SampleResult as_result;
  as_result.total_reads = reads.size();
  u64 bases = 0;
  for (const auto& read : reads.reads) bases += read.sequence.size();
  as_result.mean_read_length =
      reads.empty() ? 0.0
                    : static_cast<double>(bases) /
                          static_cast<double>(reads.size());
  as_result.stats = run.stats;
  as_result.gene_counts = run.gene_counts;
  as_result.junctions = run.junctions;
  if (run_out) *run_out = run;
  return render_sample_artifacts(as_result, world().index111,
                                 &world().synthesizer->annotation());
}

TEST(AlignmentService, SingleSampleByteIdenticalToEngineRun) {
  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 300, Rng(4242));
  const ServiceConfig config = small_config(2, 32);

  AlignmentRun reference_run;
  const std::string expect =
      reference_artifacts(reads, config.engine, &reference_run);

  AlignmentService service(world_index(), &world().synthesizer->annotation(),
                           config);
  SampleSubmission submission;
  submission.tenant = "t0";
  submission.name = "s0";
  submission.reads = reads;
  const SampleResult result = service.submit_and_wait(std::move(submission));

  EXPECT_FALSE(result.rejected_at_drain);
  EXPECT_EQ(result.total_reads, reads.size());
  ASSERT_EQ(result.outcomes.size(), reference_run.outcomes.size());
  for (usize i = 0; i < result.outcomes.size(); ++i) {
    ASSERT_EQ(result.outcomes[i], reference_run.outcomes[i]) << "read " << i;
  }
  // The headline gate: rendered artifacts are string-equal to the CLI
  // align path.
  EXPECT_EQ(render_sample_artifacts(result, world().index111,
                                    &world().synthesizer->annotation()),
            expect);
  EXPECT_GE(result.latency_secs, result.queue_secs);
}

TEST(AlignmentService, ManyTenantsManySamplesAllByteIdentical) {
  // Sample sizes straddle chunk boundaries (empty handled separately) so
  // every merge shape occurs; three tenants interleave on two workers.
  const ServiceConfig config = small_config(2, 32);
  AlignmentService service(world_index(), &world().synthesizer->annotation(),
                           config);

  const usize sizes[] = {1, 31, 32, 33, 100, 128, 200};
  struct Pending {
    ReadSet reads;
    AlignmentService::Ticket ticket;
  };
  std::vector<Pending> pending;
  u64 seed = 1;
  for (const char* tenant : {"alpha", "beta", "gamma"}) {
    for (const usize n : sizes) {
      Pending p;
      p.reads = world().simulator->simulate(bulk_rna_profile(), n, Rng(seed));
      SampleSubmission submission;
      submission.tenant = tenant;
      submission.name = "s" + std::to_string(seed);
      submission.reads = p.reads;
      p.ticket = service.submit(std::move(submission));
      ASSERT_EQ(p.ticket.status, SubmitStatus::kAccepted);
      pending.push_back(std::move(p));
      ++seed;
    }
  }
  for (Pending& p : pending) {
    const SampleResult result = p.ticket.result.get();
    ASSERT_FALSE(result.rejected_at_drain);
    EXPECT_EQ(render_sample_artifacts(result, world().index111,
                                      &world().synthesizer->annotation()),
              reference_artifacts(p.reads, config.engine))
        << result.tenant << "/" << result.name;
  }
  const auto metrics = service.metrics();
  EXPECT_EQ(metrics.samples_completed, pending.size());
  EXPECT_EQ(metrics.tenants.at("alpha").completed, std::size(sizes));
  EXPECT_EQ(metrics.queue_depth_samples, 0u);
  EXPECT_EQ(metrics.resident_read_bytes, 0u);
}

auto fields(const MappingStats& s) {
  return std::tuple(s.processed, s.unique, s.multi, s.too_many, s.unmapped,
                    s.seeds_generated, s.windows_scored, s.bases_compared);
}

auto fields(const GeneCountsTable& t) {
  return std::tuple(t.per_gene, t.n_unmapped, t.n_multimapping,
                    t.n_no_feature, t.n_ambiguous);
}

auto fields(const std::vector<Junction>& junctions) {
  std::vector<std::tuple<ContigId, u64, u64, u64, u64, u64>> out;
  for (const Junction& j : junctions) {
    out.emplace_back(j.contig, j.intron_start, j.intron_end, j.unique_reads,
                     j.multi_reads, j.max_overhang);
  }
  return out;
}

TEST(AlignmentService, ChunkBoundariesMatchEngineInProcessAndOverRpc) {
  // Every batch shape a sample can be cut into — empty, one partial
  // batch, exactly full batches, one read over — at three chunk sizes,
  // submitted as a ReadSet and as an RPC payload parsed into batches.
  for (const usize c : {usize{1}, usize{7}, usize{256}}) {
    const ServiceConfig config = small_config(2, c);
    AlignmentService service(world_index(), &world().synthesizer->annotation(),
                             config);
    const std::string path = "/tmp/staratlas_svc_chunks_" +
                             std::to_string(::getpid()) + ".sock";
    ServiceServer server(service, &world().synthesizer->annotation(), path);
    ServiceClient client(path);
    for (const usize n : {usize{0}, usize{1}, c - 1, c, c + 1, 3 * c}) {
      SCOPED_TRACE("chunk " + std::to_string(c) + ", reads " +
                   std::to_string(n));
      const ReadSet reads = world().simulator->simulate(
          bulk_rna_profile(), n, Rng(1000 * c + n));
      AlignmentRun run;
      const std::string expect = reference_artifacts(reads, config.engine, &run);

      SampleSubmission submission;
      submission.tenant = "t";
      submission.name = "s";
      submission.reads = reads;
      const SampleResult result = service.submit_and_wait(std::move(submission));
      EXPECT_EQ(result.total_reads, n);
      EXPECT_EQ(result.outcomes, run.outcomes);
      EXPECT_EQ(fields(result.stats), fields(run.stats));
      EXPECT_EQ(fields(result.gene_counts), fields(run.gene_counts));
      EXPECT_EQ(fields(result.junctions), fields(run.junctions));
      EXPECT_EQ(render_sample_artifacts(result, world().index111,
                                        &world().synthesizer->annotation()),
                expect);

      const auto response = client.submit("t", "s", fastq_text(reads));
      ASSERT_TRUE(response.ok) << response.error_code << ": "
                               << response.message;
      EXPECT_EQ(response.body, expect);
    }
  }
}

TEST(AlignmentService, ResidentReadBytesTrackAdmittedSamples) {
  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 2000, Rng(77));
  const std::string payload = fastq_text(reads);
  {
    // In process: the ReadSet is cut into batches trimmed to their reads.
    AlignmentService service(world_index(),
                             &world().synthesizer->annotation(),
                             small_config(2, 256));
    SampleSubmission submission;
    submission.tenant = "t";
    submission.name = "s";
    submission.reads = reads;
    service.submit_and_wait(std::move(submission));
    const auto metrics = service.metrics();
    EXPECT_EQ(metrics.resident_read_bytes, 0u);
    EXPECT_GT(metrics.resident_read_bytes_high_water, 0u);
    EXPECT_LE(static_cast<double>(metrics.resident_read_bytes_high_water),
              1.25 * static_cast<double>(payload.size()));
  }
  {
    // Over RPC: the payload is parsed straight into batches, and STATS
    // reports the same two numbers.
    AlignmentService service(world_index(),
                             &world().synthesizer->annotation(),
                             small_config(2, 256));
    const std::string path = "/tmp/staratlas_svc_resident_" +
                             std::to_string(::getpid()) + ".sock";
    ServiceServer server(service, &world().synthesizer->annotation(), path);
    ServiceClient client(path);
    ASSERT_TRUE(client.submit("t", "s", payload).ok);
    const auto metrics = service.metrics();
    EXPECT_EQ(metrics.resident_read_bytes, 0u);
    EXPECT_GT(metrics.resident_read_bytes_high_water, 0u);
    EXPECT_LE(static_cast<double>(metrics.resident_read_bytes_high_water),
              1.25 * static_cast<double>(payload.size()));
    const auto stats = client.stats();
    ASSERT_TRUE(stats.ok);
    EXPECT_NE(stats.body.find("resident_read_bytes\t0\n"), std::string::npos);
    EXPECT_NE(stats.body.find("resident_read_bytes_high_water\t" +
                              std::to_string(
                                  metrics.resident_read_bytes_high_water) +
                              "\n"),
              std::string::npos);
  }
}

TEST(AlignmentService, BatchSubmissionsMustBeCutAtChunkSize) {
  AlignmentService service(world_index(), &world().synthesizer->annotation(),
                           small_config(1, 4));
  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 6, Rng(78));
  const auto batch_of = [&](usize begin, usize count) {
    ReadBatch batch;
    append_read_batch(reads, begin, count, batch);
    return batch;
  };
  SampleSubmission both;
  both.reads = reads;
  both.batches.push_back(batch_of(0, 4));
  EXPECT_THROW(service.submit(std::move(both)), InvalidArgument);
  SampleSubmission short_first;
  short_first.batches.push_back(batch_of(0, 3));
  short_first.batches.push_back(batch_of(3, 3));
  EXPECT_THROW(service.submit(std::move(short_first)), InvalidArgument);

  SampleSubmission cut;
  cut.tenant = "t";
  cut.name = "s";
  cut.batches.push_back(batch_of(0, 4));
  cut.batches.push_back(batch_of(4, 2));
  EXPECT_EQ(render_sample_artifacts(service.submit_and_wait(std::move(cut)),
                                    world().index111,
                                    &world().synthesizer->annotation()),
            reference_artifacts(reads, small_config(1, 4).engine));
}

TEST(AlignmentService, EmptySampleCompletesImmediately) {
  AlignmentService service(world_index(), &world().synthesizer->annotation(),
                           small_config(1, 64));
  SampleSubmission submission;
  submission.tenant = "t";
  submission.name = "empty";
  const SampleResult result = service.submit_and_wait(std::move(submission));
  EXPECT_EQ(result.total_reads, 0u);
  EXPECT_EQ(result.stats.processed, 0u);
  EXPECT_TRUE(result.outcomes.empty());
  EXPECT_FALSE(result.rejected_at_drain);
}

TEST(AlignmentService, BackpressureRejectsBeyondTenantCaps) {
  ServiceConfig config = small_config(1, 32);
  TenantProfile tight;
  tight.max_queued_samples = 2;
  config.tenants["tight"] = tight;
  AlignmentService service(world_index(), &world().synthesizer->annotation(),
                           config);

  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 128, Rng(9));
  std::vector<AlignmentService::Ticket> tickets;
  usize rejected = 0;
  for (int i = 0; i < 8; ++i) {
    SampleSubmission submission;
    submission.tenant = "tight";
    submission.name = "s" + std::to_string(i);
    submission.reads = reads;
    auto ticket = service.submit(std::move(submission));
    if (ticket.status == SubmitStatus::kAccepted) {
      tickets.push_back(std::move(ticket));
    } else {
      EXPECT_EQ(ticket.status, SubmitStatus::kTenantQueueFull);
      ++rejected;
    }
  }
  // At most 2 queued+in-flight at once, so each acceptance beyond the
  // cap must be paid for by a completion that landed mid-burst — a bound
  // the metrics make observable and that holds under any scheduling
  // (completions only grow between the burst and the metrics read, which
  // can only loosen the bound in the safe direction).
  const usize completed_mid_burst = service.metrics().samples_completed;
  EXPECT_EQ(rejected + tickets.size(), 8u);
  EXPECT_LE(tickets.size(), 2u + completed_mid_burst);
  for (auto& ticket : tickets) {
    EXPECT_FALSE(ticket.result.get().rejected_at_drain);
  }
  EXPECT_EQ(service.metrics().tenants.at("tight").rejected, rejected);
}

TEST(AlignmentService, LightTenantCompletesAheadOfHeavyBacklog) {
  // Chunk-granular fair share on one worker: a light single-chunk sample
  // submitted into a deep heavy backlog completes after at most a couple
  // more heavy completions — never behind the whole backlog.
  using Clock = std::chrono::steady_clock;
  ServiceConfig config = small_config(1, 32);
  AlignmentService service(world_index(), &world().synthesizer->annotation(),
                           config);
  const ReadSet heavy_reads =
      world().simulator->simulate(bulk_rna_profile(), 256, Rng(21));
  // Simulated before the flood is submitted, so the time the test thread
  // takes to build the light sample is not spent while the worker drains
  // heavies.
  SampleSubmission light;
  light.tenant = "light";
  light.name = "l0";
  light.reads = world().simulator->simulate(bulk_rna_profile(), 32, Rng(22));
  // submit() stamps a sample's submission first thing, so a stamp taken
  // just before the call stands for it, and adding the service-measured
  // latency gives its completion time. Completions are then ordered on
  // the service's clock, not by when this thread happens to wake.
  const auto completed_at = [](Clock::time_point submitted,
                               const SampleResult& result) {
    return submitted + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(result.latency_secs));
  };
  std::vector<AlignmentService::Ticket> heavy;
  std::vector<Clock::time_point> heavy_submitted;
  for (int i = 0; i < 12; ++i) {
    SampleSubmission submission;
    submission.tenant = "heavy";
    submission.name = "h" + std::to_string(i);
    submission.reads = heavy_reads;
    heavy_submitted.push_back(Clock::now());
    auto ticket = service.submit(std::move(submission));
    ASSERT_EQ(ticket.status, SubmitStatus::kAccepted);
    heavy.push_back(std::move(ticket));
  }
  // Wait until the flood is mid-stream (first heavy sample done).
  heavy.front().result.wait();

  const Clock::time_point light_submitted = Clock::now();
  auto light_ticket = service.submit(std::move(light));
  ASSERT_EQ(light_ticket.status, SubmitStatus::kAccepted);
  const Clock::time_point light_done =
      completed_at(light_submitted, light_ticket.result.get());

  // The first heavy was done before the light was submitted; every other
  // heavy counts if it completed while the light was in the service.
  // Heavies that completed between the first one and the light's
  // submission did so while this thread was waking, not because the
  // scheduler favoured them, so they do not count.
  usize heavy_done = 1;
  for (usize i = 1; i < heavy.size(); ++i) {
    const Clock::time_point done =
        completed_at(heavy_submitted[i], heavy[i].result.get());
    if (done > light_submitted && done < light_done) ++heavy_done;
  }
  // The key claim is that MOST of the backlog was still pending when
  // light finished.
  EXPECT_LE(heavy_done, 6u) << "light tenant waited behind the heavy backlog";
}

TEST(AlignmentService, DrainCompletesInFlightAndRejectsQueued) {
  ServiceConfig config = small_config(1, 32);
  AlignmentService service(world_index(), &world().synthesizer->annotation(),
                           config);
  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 256, Rng(5));
  std::vector<AlignmentService::Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    SampleSubmission submission;
    submission.tenant = "t";
    submission.name = "s" + std::to_string(i);
    submission.reads = reads;
    auto ticket = service.submit(std::move(submission));
    ASSERT_EQ(ticket.status, SubmitStatus::kAccepted);
    tickets.push_back(std::move(ticket));
  }
  service.drain();
  EXPECT_TRUE(service.draining());

  usize completed = 0;
  usize rejected = 0;
  for (auto& ticket : tickets) {
    const SampleResult result = ticket.result.get();  // all must resolve
    if (result.rejected_at_drain) {
      ++rejected;
      EXPECT_TRUE(result.outcomes.empty());
      EXPECT_EQ(result.stats.processed, 0u);
    } else {
      ++completed;
      // In-flight samples finish completely, never partially.
      EXPECT_EQ(result.stats.processed, reads.size());
      EXPECT_EQ(result.outcomes.size(), reads.size());
    }
  }
  EXPECT_EQ(completed + rejected, tickets.size());
  EXPECT_GE(rejected, 1u);  // the backlog cannot all have started

  // Post-drain submissions are refused outright.
  SampleSubmission late;
  late.tenant = "t";
  late.name = "late";
  late.reads = reads;
  EXPECT_EQ(service.submit(std::move(late)).status, SubmitStatus::kDraining);
  // Idempotent (and the destructor will call it again).
  service.drain();
}

TEST(AlignmentService, SharedCacheLoadsOnceAndStaysPinned) {
  SharedIndexCache cache(ByteSize::from_gib(4.0));
  usize loader_calls = 0;
  const auto loader = [&loader_calls] {
    ++loader_calls;
    GenomeSpec spec;
    spec.num_chromosomes = 1;
    spec.chromosome_length = 40'000;
    spec.genes_per_chromosome = 4;
    spec.seed = 77;
    const GenomeSynthesizer synthesizer(spec);
    return GenomeIndex::build(synthesizer.make_release111());
  };
  ServiceConfig config;
  config.engine.num_threads = 2;
  config.engine.quant_gene_counts = false;  // loader genome != world annotation
  config.engine.chunk_size = 32;
  {
    AlignmentService service(cache, "svc-index", loader, nullptr, config);
    std::vector<AlignmentService::Ticket> tickets;
    for (int i = 0; i < 10; ++i) {
      SampleSubmission submission;
      submission.tenant = i % 2 ? "a" : "b";
      submission.name = "s" + std::to_string(i);
      submission.reads =
          world().simulator->simulate(bulk_rna_profile(), 64, Rng(i + 1));
      auto ticket = service.submit(std::move(submission));
      ASSERT_EQ(ticket.status, SubmitStatus::kAccepted);
      tickets.push_back(std::move(ticket));
    }
    for (auto& ticket : tickets) ticket.result.wait();

    const auto metrics = service.metrics();
    EXPECT_EQ(metrics.index_cache_loads, 1u);  // zero duplicate loads
    EXPECT_EQ(loader_calls, 1u);
    EXPECT_GE(metrics.index_cache_hits, 10u);  // one pin per sample
    EXPECT_TRUE(cache.resident("svc-index"));
  }
  // Service gone: the entry is unpinned but still cached for the next
  // service (LoadAndKeep semantics).
  EXPECT_TRUE(cache.resident("svc-index"));
  EXPECT_EQ(loader_calls, 1u);
}

}  // namespace
}  // namespace staratlas
