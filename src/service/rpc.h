// Local RPC front of the alignment service: a Unix-domain stream socket
// with a tiny text-framed protocol, so `staratlas submit` processes hand
// samples to one long-lived `staratlas serve` daemon that owns the
// loaded index (the paper's load-once index amortized across every
// submission on the machine, without shared memory segments).
//
// Wire protocol (one request per line, big payloads length-prefixed):
//
//   SUBMIT <tenant> <name> <nbytes>\n<nbytes of FASTQ>
//     -> OK <nbytes>\n<artifact text>      (sample completed)
//     -> ERR <code> <message>\n            (rejected / failed)
//   STATS\n  -> OK <nbytes>\n<metrics text>
//   PING\n   -> OK 5\npong\n
//   DRAIN\n  -> OK 0\n                     (after the drain completes)
//
// <code> is a submit_status_name (backpressure propagates to the client
// verbatim: tenant_queue_full means THIS tenant is over its share),
// "parse_error" for malformed FASTQ, or "internal". <nbytes> is decimal
// digits only; a malformed header gets ERR internal and the connection is
// dropped (its framing is lost), as is any request that fails inside the
// server. The server parses a SUBMIT payload as it arrives, 256 KiB at a
// time, into the chunk_size-read batches the service aligns: it never
// holds the raw payload, and its memory grows only with the bytes that
// arrive. A malformed payload is still read to its declared length before
// the ERR frame, so the connection keeps its framing; a peer that hangs
// up mid-payload is dropped unanswered.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "genome/annotation.h"
#include "service/service.h"

namespace staratlas {

/// Serves one AlignmentService over a Unix-domain socket. Connections are
/// handled on their own threads; a SUBMIT blocks its connection (not the
/// server) until the sample completes, so one client naturally pipelines
/// by opening several connections.
class ServiceServer {
 public:
  /// Binds and listens on `socket_path` (an existing socket file is
  /// replaced) and starts the accept loop. `annotation` may be null
  /// (gene-count sections are skipped in responses). Throws IoError on
  /// bind/listen failure.
  ServiceServer(AlignmentService& service, const Annotation* annotation,
                std::string socket_path);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  const std::string& socket_path() const { return socket_path_; }

  /// Stops accepting, unblocks in-flight connections and joins every
  /// connection thread. Does NOT drain the service (a DRAIN request or
  /// the service owner does that). Idempotent.
  void stop();

 private:
  void accept_loop();
  /// Runs serve_requests and closes `fd`; no exception leaves it.
  void serve_connection(int fd);
  /// The request loop of one connection; returns when the peer hangs up
  /// or the framing is lost.
  void serve_requests(int fd);

  AlignmentService* service_;
  const Annotation* annotation_;
  std::string socket_path_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::mutex mu_;  ///< connection registry
  std::vector<int> open_fds_;
  std::vector<std::thread> connections_;
};

/// One connection to a ServiceServer. Methods are synchronous and must
/// not be called concurrently on one client; open several clients to
/// pipeline submissions.
class ServiceClient {
 public:
  /// What came back for a request.
  struct Response {
    bool ok = false;
    std::string error_code;  ///< submit_status_name / parse_error / internal
    std::string message;     ///< human-readable rejection detail
    std::string body;        ///< artifact or metrics text when ok
  };

  /// Connects to `socket_path`; throws IoError when nothing listens.
  explicit ServiceClient(const std::string& socket_path);
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Submits `fastq` (4-line records) and blocks until the sample
  /// completes or is rejected. `tenant`/`name` must be non-empty and
  /// whitespace-free (they travel on the request line).
  Response submit(const std::string& tenant, const std::string& name,
                  std::string_view fastq);
  Response stats();
  Response ping();
  Response drain();

 private:
  Response request(const std::string& header, std::string_view payload);

  int fd_ = -1;
};

}  // namespace staratlas
