// ServiceServer / ServiceClient over a loopback Unix-domain socket: a
// SUBMIT round-trip returns exactly the in-process artifacts, errors
// travel as ERR frames with the admission status names, STATS/PING/
// DRAIN behave per the protocol comment in rpc.h, and a forged frame
// costs only its own connection.
#include "service/rpc.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
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

using staratlas::testing::fastq_text;
using staratlas::testing::world;

std::shared_ptr<const GenomeIndex> world_index() {
  return {std::shared_ptr<const GenomeIndex>(), &world().index111};
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

/// What the in-process service answers for `reads` under `config`.
std::string in_process_body(const ReadSet& reads,
                            const ServiceConfig& config) {
  AlignmentService local(world_index(), &world().synthesizer->annotation(),
                         config);
  SampleSubmission submission;
  submission.tenant = "t";
  submission.name = "s";
  submission.reads = reads;
  return render_sample_artifacts(local.submit_and_wait(std::move(submission)),
                                 world().index111,
                                 &world().synthesizer->annotation());
}

TEST(ServiceRpc, SubmitReturnsInProcessArtifactsExactly) {
  ServerFixture fx("submit");
  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 200, Rng(31));

  // In-process reference through the same service config.
  const std::string expect = in_process_body(reads, fx.config);

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
  const std::string expect = in_process_body(reads, fx.config);

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

/// Sends `bytes` on a fresh raw connection, closes the sending side and
/// returns everything the server answers before it closes its side.
std::string raw_exchange(const std::string& path, const std::string& bytes) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // The server may drop the connection before reading everything, so a
  // short send is not a failure here.
  ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buf[256];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<usize>(n));
  }
  ::close(fd);
  return reply;
}

TEST(ServiceRpc, ForgedSubmitLengthsDropOnlyTheirConnection) {
  ServerFixture fx("lengths");
  const std::string& path = fx.server->socket_path();
  const std::string kMalformed = "ERR internal malformed SUBMIT header\n";
  struct Case {
    const char* frame;
    const std::string expect;  ///< the server's whole answer
  };
  const Case cases[] = {
      // Not decimal digits: an ERR frame, then the server drops the
      // connection. "-1" used to wrap to 2^64-1 and abort the daemon
      // with std::length_error.
      {"SUBMIT a b -1\n", kMalformed},
      {"SUBMIT a b 12x\n", kMalformed},
      // Well-formed lengths whose sender hangs up early: the server
      // buffers only what arrived and drops the connection unanswered.
      {"SUBMIT a b 18446744073709551615\n", ""},
      {"SUBMIT a b 1099511627776\nAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", ""},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.frame);
    EXPECT_EQ(raw_exchange(path, c.frame), c.expect);
    ServiceClient client(path);
    const auto pong = client.ping();
    ASSERT_TRUE(pong.ok);
    EXPECT_EQ(pong.body, "pong\n");
  }
  EXPECT_EQ(fx.service->metrics().samples_completed, 0u);
}

std::string submit_frame(const std::string& name, const std::string& fastq) {
  return "SUBMIT t " + name + " " + std::to_string(fastq.size()) + "\n" +
         fastq;
}

std::string ok_frame(const std::string& body) {
  return "OK " + std::to_string(body.size()) + "\n" + body;
}

TEST(ServiceRpc, TwoSubmitFramesInOneWriteGetTwoAnswers) {
  // The payload stream stops at its declared length, so bytes of the next
  // frame that arrive in the same receive stay on the socket for it.
  ServerFixture fx("pipelined");
  const ReadSet a = world().simulator->simulate(bulk_rna_profile(), 70, Rng(41));
  const ReadSet b = world().simulator->simulate(bulk_rna_profile(), 33, Rng(42));
  const std::string reply =
      raw_exchange(fx.server->socket_path(),
                   submit_frame("a", fastq_text(a)) +
                       submit_frame("b", fastq_text(b)));
  EXPECT_EQ(reply, ok_frame(in_process_body(a, fx.config)) +
                       ok_frame(in_process_body(b, fx.config)));
  EXPECT_EQ(fx.service->metrics().samples_completed, 2u);
}

TEST(ServiceRpc, ParseErrorDrainsThePayloadAndKeepsTheFraming) {
  // A bad record near the start of a ~1 MB payload: the parse stops there,
  // the rest of the payload is read and discarded, the ERR frame carries
  // read_fastq's message for the same bytes, and the next SUBMIT on the
  // connection is answered normally.
  ServerFixture fx("drain_parse");
  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 4600, Rng(43));
  std::string bad = fastq_text(reads);
  ASSERT_GT(bad.size(), 1'000'000u);
  // Drop the last quality character of the third record.
  usize at = 0;
  for (int line = 0; line < 12; ++line) at = bad.find('\n', at) + 1;
  bad.erase(at - 2, 1);
  std::string message;
  try {
    std::istringstream in(bad);
    read_fastq(in);
  } catch (const ParseError& e) {
    message = e.what();
  }
  ASSERT_NE(message, "");

  const ReadSet good =
      world().simulator->simulate(bulk_rna_profile(), 40, Rng(44));
  const std::string reply =
      raw_exchange(fx.server->socket_path(),
                   submit_frame("bad", bad) +
                       submit_frame("good", fastq_text(good)));
  EXPECT_EQ(reply, "ERR parse_error " + message + "\n" +
                       ok_frame(in_process_body(good, fx.config)));
  EXPECT_EQ(fx.service->metrics().samples_completed, 1u);
}

TEST(ServiceRpc, MalformedPrefixThenHangUpIsDroppedUnanswered) {
  // The parse fails on the first record, but the declared payload never
  // arrives: the drain meets the hang-up and the connection is dropped
  // without an answer, as a short payload always was.
  ServerFixture fx("bad_hangup");
  const std::string& path = fx.server->socket_path();
  EXPECT_EQ(raw_exchange(path, "SUBMIT t x 1000000\n@r1\nACGT\n+\nII\n"), "");
  EXPECT_EQ(raw_exchange(path, "SUBMIT t x 1000000\nnot a header\n"), "");

  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 20, Rng(45));
  ServiceClient client(path);
  const auto response = client.submit("t", "s", fastq_text(reads));
  ASSERT_TRUE(response.ok) << response.error_code << ": " << response.message;
  EXPECT_EQ(response.body, in_process_body(reads, fx.config));
  EXPECT_EQ(fx.service->metrics().samples_completed, 1u);
}

TEST(ServiceRpc, CrlfAndUnterminatedPayloadsGiveTheLfBody) {
  ServerFixture fx("line_ends");
  const ReadSet reads =
      world().simulator->simulate(bulk_rna_profile(), 50, Rng(46));
  const std::string lf = fastq_text(reads);
  std::string crlf;
  for (char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const std::string expect = in_process_body(reads, fx.config);
  ServiceClient client(fx.server->socket_path());
  for (const std::string& payload :
       {lf, crlf, lf.substr(0, lf.size() - 1),
        crlf.substr(0, crlf.size() - 2)}) {
    const auto response = client.submit("t", "s", payload);
    ASSERT_TRUE(response.ok) << response.error_code << ": "
                             << response.message;
    EXPECT_EQ(response.body, expect);
  }
}

TEST(ServiceRpc, ForgedResponseLengthsThrowIoError) {
  // A fake daemon answers each request with one forged OK header and
  // hangs up. Not decimal digits, or a length the daemon never sends:
  // the client must end in IoError. "-1" used to wrap to 2^64-1 and
  // throw std::length_error before any body byte arrived.
  const std::string path = socket_path("forged_ok");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  for (const std::string reply :
       {"OK -1\n", "OK 12x\n", "OK 18446744073709551615\n"}) {
    SCOPED_TRACE(reply);
    std::thread daemon([&] {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      char c = 0;
      while (::recv(fd, &c, 1, 0) == 1 && c != '\n') {
      }
      ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
      ::close(fd);
    });
    ServiceClient client(path);
    EXPECT_THROW(client.ping(), IoError);
    daemon.join();
  }
  ::close(listen_fd);
  ::unlink(path.c_str());
}

TEST(ServiceRpc, ConnectToMissingSocketThrows) {
  EXPECT_THROW(ServiceClient("/tmp/staratlas_no_such_socket.sock"), IoError);
}

}  // namespace
}  // namespace staratlas
