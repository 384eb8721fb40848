#include "service/rpc.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/error.h"
#include "common/stats.h"
#include "io/fastq.h"
#include "service/artifacts.h"

namespace staratlas {

namespace {

// ---- framing helpers (blocking fd I/O with partial-transfer loops) ----

bool send_all(int fd, const char* data, usize len) {
  while (len > 0) {
    // MSG_NOSIGNAL: a peer that hung up turns into an error return, not a
    // process-killing SIGPIPE on a server thread.
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<usize>(n);
  }
  return true;
}

bool send_all(int fd, const std::string& data) {
  return send_all(fd, data.data(), data.size());
}

bool recv_all(int fd, char* data, usize len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<usize>(n);
  }
  return true;
}

/// Reads up to (and including) '\n'; false on EOF before any byte.
/// Headers are tens of bytes, so byte-at-a-time reads are fine here.
bool recv_line(int fd, std::string& line, usize max_len = 4096) {
  line.clear();
  char c = 0;
  while (line.size() < max_len) {
    if (!recv_all(fd, &c, 1)) return false;
    if (c == '\n') return true;
    line.push_back(c);
  }
  return false;
}

bool token_ok(const std::string& token) {
  if (token.empty()) return false;
  for (char c : token) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return false;
  }
  return true;
}

bool send_ok(int fd, const std::string& body) {
  std::string header = "OK " + std::to_string(body.size()) + "\n";
  return send_all(fd, header) && send_all(fd, body);
}

bool send_err(int fd, const std::string& code, const std::string& message) {
  return send_all(fd, "ERR " + code + " " + message + "\n");
}

std::string render_metrics(const AlignmentService::Metrics& metrics) {
  std::ostringstream out;
  out << "samples_completed\t" << metrics.samples_completed << "\n";
  out << "reads_completed\t" << metrics.reads_completed << "\n";
  out << "chunks_dispatched\t" << metrics.chunks_dispatched << "\n";
  out << "queue_depth_samples\t" << metrics.queue_depth_samples << "\n";
  out << "queue_high_water\t" << metrics.queue_high_water << "\n";
  out << "index_cache_loads\t" << metrics.index_cache_loads << "\n";
  out << "index_cache_hits\t" << metrics.index_cache_hits << "\n";
  for (const auto& [tenant, tm] : metrics.tenants) {
    out << "tenant\t" << tenant << "\taccepted=" << tm.accepted
        << "\trejected=" << tm.rejected << "\tcompleted=" << tm.completed
        << "\trejected_at_drain=" << tm.rejected_at_drain
        << "\treads=" << tm.reads_completed
        << "\tqueue_high_water=" << tm.queue_high_water
        << "\tp50_ms=" << percentile(tm.latencies, 50.0) * 1e3
        << "\tp99_ms=" << percentile(tm.latencies, 99.0) * 1e3 << "\n";
  }
  return out.str();
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw IoError("socket(): " + std::string(std::strerror(errno)));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw IoError("connect(" + path + "): " + std::strerror(err));
  }
  return fd;
}

}  // namespace

// ---- server ----------------------------------------------------------

ServiceServer::ServiceServer(AlignmentService& service,
                             const Annotation* annotation,
                             std::string socket_path)
    : service_(&service),
      annotation_(annotation),
      socket_path_(std::move(socket_path)) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    throw InvalidArgument("socket path too long: " + socket_path_);
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw IoError("socket(): " + std::string(std::strerror(errno)));
  }
  ::unlink(socket_path_.c_str());  // replace a stale socket file
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("bind/listen(" + socket_path_ +
                  "): " + std::strerror(err));
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

ServiceServer::~ServiceServer() { stop(); }

void ServiceServer::stop() {
  if (stopping_.exchange(true)) return;
  // Shutting down the listening socket pops accept() with an error (the
  // fd is closed only after the acceptor exits — closing an fd another
  // thread is blocked on races against fd reuse); shutting down client
  // fds pops any blocked recv so connection threads unwind.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard lock(mu_);
    for (int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> connections;
  {
    std::lock_guard lock(mu_);
    connections.swap(connections_);
  }
  for (auto& thread : connections) thread.join();
  ::unlink(socket_path_.c_str());
}

void ServiceServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket closed: server stopping
    }
    std::lock_guard lock(mu_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    open_fds_.push_back(fd);
    connections_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void ServiceServer::serve_connection(int fd) {
  std::string line;
  while (recv_line(fd, line)) {
    std::istringstream header(line);
    std::string verb;
    header >> verb;
    if (verb == "PING") {
      if (!send_ok(fd, "pong\n")) break;
    } else if (verb == "STATS") {
      if (!send_ok(fd, render_metrics(service_->metrics()))) break;
    } else if (verb == "DRAIN") {
      service_->drain();
      if (!send_ok(fd, "")) break;
    } else if (verb == "SUBMIT") {
      std::string tenant;
      std::string name;
      u64 nbytes = 0;
      header >> tenant >> name >> nbytes;
      if (header.fail() || !token_ok(tenant) || !token_ok(name)) {
        send_err(fd, "internal", "malformed SUBMIT header");
        break;  // framing is lost: drop the connection
      }
      std::string payload(nbytes, '\0');
      if (!recv_all(fd, payload.data(), payload.size())) break;
      SampleSubmission submission;
      submission.tenant = std::move(tenant);
      submission.name = std::move(name);
      try {
        std::istringstream fastq(std::move(payload));
        submission.reads = make_read_set(read_fastq(fastq));
      } catch (const Error& e) {
        if (!send_err(fd, "parse_error", e.what())) break;
        continue;
      }
      AlignmentService::Ticket ticket = service_->submit(std::move(submission));
      if (ticket.status != SubmitStatus::kAccepted) {
        if (!send_err(fd, submit_status_name(ticket.status),
                      "submission rejected")) {
          break;
        }
        continue;
      }
      const SampleResult result = ticket.result.get();
      if (result.rejected_at_drain) {
        if (!send_err(fd, "draining", "sample rejected at drain")) break;
        continue;
      }
      const std::string body = render_sample_artifacts(
          result, service_->index(), annotation_);
      if (!send_ok(fd, body)) break;
    } else {
      send_err(fd, "internal", "unknown verb: " + verb);
      break;
    }
  }
  {
    // Deregister before closing so stop() never shutdown()s a closed
    // (and possibly reused) fd number.
    std::lock_guard lock(mu_);
    open_fds_.erase(std::remove(open_fds_.begin(), open_fds_.end(), fd),
                    open_fds_.end());
  }
  ::close(fd);
}

// ---- client ----------------------------------------------------------

ServiceClient::ServiceClient(const std::string& socket_path)
    : fd_(connect_unix(socket_path)) {}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) ::close(fd_);
}

ServiceClient::Response ServiceClient::request(const std::string& header,
                                               const std::string& payload) {
  Response response;
  if (!send_all(fd_, header) || !send_all(fd_, payload)) {
    throw IoError("service connection lost while sending");
  }
  std::string line;
  if (!recv_line(fd_, line)) {
    throw IoError("service connection closed before a response");
  }
  std::istringstream reply(line);
  std::string status;
  reply >> status;
  if (status == "OK") {
    u64 nbytes = 0;
    reply >> nbytes;
    response.body.assign(nbytes, '\0');
    if (!recv_all(fd_, response.body.data(), response.body.size())) {
      throw IoError("service connection closed mid-body");
    }
    response.ok = true;
    return response;
  }
  if (status == "ERR") {
    reply >> response.error_code;
    std::getline(reply, response.message);
    if (!response.message.empty() && response.message.front() == ' ') {
      response.message.erase(response.message.begin());
    }
    return response;
  }
  throw IoError("malformed service response: " + line);
}

ServiceClient::Response ServiceClient::submit(const std::string& tenant,
                                              const std::string& name,
                                              const std::string& fastq) {
  if (!token_ok(tenant) || !token_ok(name)) {
    throw InvalidArgument("tenant and sample names must be non-empty and "
                          "whitespace-free");
  }
  return request("SUBMIT " + tenant + " " + name + " " +
                     std::to_string(fastq.size()) + "\n",
                 fastq);
}

ServiceClient::Response ServiceClient::stats() { return request("STATS\n", ""); }

ServiceClient::Response ServiceClient::ping() { return request("PING\n", ""); }

ServiceClient::Response ServiceClient::drain() { return request("DRAIN\n", ""); }

}  // namespace staratlas
