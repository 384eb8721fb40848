// ServiceServer / ServiceClient over a loopback Unix-domain socket: a
// SUBMIT round-trip returns exactly the in-process artifacts, errors
// travel as ERR frames with the admission status names, and STATS/PING/
// DRAIN behave per the protocol comment in rpc.h.
#include "service/rpc.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "io/fastq.h"
#include "service/artifacts.h"
#include "sim/library_profile.h"
#include "sim/read_simulator.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

std::shared_ptr<const GenomeIndex> world_index() {
  return {std::shared_ptr<const GenomeIndex>(), &world().index111};
}

std::string fastq_text(const ReadSet& reads) {
  std::ostringstream out;
  write_fastq(out, reads.reads);
  return out.str();
}

// sun_path is ~108 bytes; keep the socket under a short /tmp name rather
// than the (potentially deep) test temp dir.
std::string socket_path(const char* tag) {
  return "/tmp/staratlas_rpc_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

struct ServerFixture {
  ServiceConfig config;
  std::unique_ptr<AlignmentService> service;
  std::unique_ptr<ServiceServer> server;

  explicit ServerFixture(const char* tag, usize workers = 2) {
    config.engine.num_threads = workers;
    config.engine.collect_junctions = true;
    config.engine.chunk_size = 32;
    service = std::make_unique<AlignmentService>(
        world_index(), &world().synthesizer->annotation(), config);
    server = std::make_unique<ServiceServer>(
        *service, &world().synthesizer->annotation(), socket_path(tag));
  }
};

TEST(ServiceRpc, SubmitReturnsInProcessArtifactsExactly) {
  ServerFixture fx("submit");
  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 200, Rng(31));

  // In-process reference through the same service config.
  AlignmentService local(world_index(), &world().synthesizer->annotation(),
                         fx.config);
  SampleSubmission submission;
  submission.tenant = "t";
  submission.name = "s";
  submission.reads = reads;
  const std::string expect = render_sample_artifacts(
      local.submit_and_wait(std::move(submission)), world().index111,
      &world().synthesizer->annotation());

  ServiceClient client(fx.server->socket_path());
  const auto response = client.submit("t", "s", fastq_text(reads));
  ASSERT_TRUE(response.ok) << response.error_code << ": " << response.message;
  EXPECT_EQ(response.body, expect);
}

TEST(ServiceRpc, ConcurrentClientsAllSucceed) {
  ServerFixture fx("multi");
  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 64, Rng(8));
  const std::string payload = fastq_text(reads);
  const std::string expect = [&] {
    AlignmentService local(world_index(), &world().synthesizer->annotation(),
                           fx.config);
    SampleSubmission submission;
    submission.tenant = "c0";
    submission.name = "s";
    submission.reads = reads;
    return render_sample_artifacts(local.submit_and_wait(std::move(submission)),
                                   world().index111,
                                   &world().synthesizer->annotation());
  }();

  constexpr int kClients = 4;
  std::vector<std::string> bodies(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServiceClient client(fx.server->socket_path());
      const auto response =
          client.submit("c" + std::to_string(c), "s", payload);
      if (response.ok) bodies[c] = response.body;
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    // Artifacts are tenant-independent (same reads, same index).
    EXPECT_EQ(bodies[c], expect) << "client " << c;
  }
  EXPECT_EQ(fx.service->metrics().samples_completed, 4u);
}

TEST(ServiceRpc, MalformedFastqReturnsParseError) {
  ServerFixture fx("parse");
  ServiceClient client(fx.server->socket_path());
  const auto response =
      client.submit("t", "bad", "@r1\nACGT\n+\nII\n");  // length mismatch
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "parse_error");
  // The connection survives an ERR frame.
  EXPECT_TRUE(client.ping().ok);
}

TEST(ServiceRpc, BackpressurePropagatesAsErrFrame) {
  ServerFixture fx("reject", 1);
  fx.server.reset();
  fx.service.reset();
  // Rebuild with a zero-capacity tenant so the rejection is deterministic.
  TenantProfile blocked;
  blocked.max_queued_samples = 0;
  fx.config.tenants["blocked"] = blocked;
  fx.service = std::make_unique<AlignmentService>(
      world_index(), &world().synthesizer->annotation(), fx.config);
  fx.server = std::make_unique<ServiceServer>(
      *fx.service, &world().synthesizer->annotation(), socket_path("reject2"));

  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 32, Rng(3));
  ServiceClient client(fx.server->socket_path());
  const auto response = client.submit("blocked", "s", fastq_text(reads));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "tenant_queue_full");
  // Other tenants are unaffected.
  EXPECT_TRUE(client.submit("open", "s", fastq_text(reads)).ok);
}

TEST(ServiceRpc, PingAndStats) {
  ServerFixture fx("stats");
  ServiceClient client(fx.server->socket_path());
  const auto pong = client.ping();
  ASSERT_TRUE(pong.ok);
  EXPECT_EQ(pong.body, "pong\n");

  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 48, Rng(5));
  ASSERT_TRUE(client.submit("acme", "s0", fastq_text(reads)).ok);
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_NE(stats.body.find("samples_completed"), std::string::npos);
  EXPECT_NE(stats.body.find("acme"), std::string::npos);
}

TEST(ServiceRpc, DrainStopsAdmissionAndCompletesInFlight) {
  ServerFixture fx("drain");
  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 64, Rng(6));
  ServiceClient submitter(fx.server->socket_path());
  ASSERT_TRUE(submitter.submit("t", "before", fastq_text(reads)).ok);

  ServiceClient drainer(fx.server->socket_path());
  ASSERT_TRUE(drainer.drain().ok);
  EXPECT_TRUE(fx.service->draining());

  const auto after = submitter.submit("t", "after", fastq_text(reads));
  EXPECT_FALSE(after.ok);
  EXPECT_EQ(after.error_code, "draining");
}

TEST(ServiceRpc, ConnectToMissingSocketThrows) {
  EXPECT_THROW(ServiceClient("/tmp/staratlas_no_such_socket.sock"), IoError);
}

}  // namespace
}  // namespace staratlas
