#include "service/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <stdexcept>

#include "service/store_version.hpp"

namespace kncube::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// connect(2) with EINTR handling. A signal can interrupt connect, but the
/// kernel keeps establishing the connection in the background (POSIX leaves
/// the request in progress) — re-calling connect would yield EALREADY, so
/// the correct recovery is to wait for writability and read SO_ERROR.
/// Returns 0 on success; -1 with errno set on failure.
int connect_eintr(int fd, const sockaddr* addr, socklen_t len) {
  if (::connect(fd, addr, len) == 0) return 0;
  if (errno != EINTR) return -1;
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLOUT;
  for (;;) {
    const int pr = ::poll(&pfd, 1, -1);
    if (pr > 0) break;
    if (pr < 0 && errno == EINTR) continue;
    return -1;
  }
  int err = 0;
  socklen_t err_len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) return -1;
  if (err != 0) {
    errno = err;
    return -1;
  }
  return 0;
}

}  // namespace

Client::Client(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("Client: socket");
  if (connect_eintr(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    errno = err;
    throw_errno("Client: connect '" + socket_path + "'");
  }
  const std::string greeting = read_line();
  if (!parse_hello(greeting, &hello_)) {
    throw std::runtime_error("Client: bad greeting '" + greeting + "'");
  }
  if (hello_.protocol != kProtocolVersion) {
    throw std::runtime_error("Client: protocol mismatch (server " +
                             std::to_string(hello_.protocol) + ", client " +
                             std::to_string(kProtocolVersion) + ")");
  }
  if (hello_.version != store_version()) {
    // Raw struct bytes travel on this wire; different builds must not talk.
    throw std::runtime_error(
        "Client: server was built from different result-producing code "
        "(store version mismatch); restart the daemon from this build");
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_line(const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("Client: send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string Client::read_line() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A real I/O error is not the orderly shutdown the message below
      // suggests; surface errno so mid-sweep failures are diagnosable.
      throw_errno("Client: recv");
    }
    if (n == 0) {
      throw std::runtime_error("Client: server closed the connection");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Client::ping() {
  send_line("PING");
  const std::string reply = read_line();
  if (reply != "PONG") {
    throw std::runtime_error("Client: expected PONG, got '" + reply + "'");
  }
}

StatsMsg Client::server_stats() {
  send_line("STATS");
  const std::string reply = read_line();
  StatsMsg msg;
  if (!parse_stats(reply, &msg)) {
    throw std::runtime_error("Client: bad STATS reply '" + reply + "'");
  }
  return msg;
}

Client::SweepOutcome Client::run(const core::ScenarioSpec& spec,
                                 Request params) {
  // Built in place: GCC 12 misreports `"r" + std::to_string(...)` here as
  // a -Wrestrict overlap.
  params.id.assign(1, 'r').append(std::to_string(next_id_++));
  params.spec_text = core::format_scenario(spec);

  send_line("REQUEST " + params.id);
  for (const std::string& line : format_request_body(params)) send_line(line);
  send_line("END");

  SweepOutcome outcome;
  std::map<std::uint64_t, core::PointResult> by_index;
  bool done = false;
  std::uint64_t expected_points = 0;
  while (!done) {
    const std::string line = read_line();
    BeginMsg begin;
    SweepMsg sweep;
    PointMsg point;
    StatsMsg stats;
    DoneMsg done_msg;
    ErrorMsg error;
    if (parse_point(line, &point)) {
      by_index[point.index] = point.point;
    } else if (parse_begin(line, &begin)) {
      outcome.begin = begin;
    } else if (parse_sweep(line, &sweep)) {
      outcome.has_sweep = true;
      outcome.sweep = sweep;
    } else if (parse_stats(line, &stats)) {
      outcome.stats = stats;
    } else if (parse_done(line, &done_msg)) {
      expected_points = done_msg.points;
      done = true;
    } else if (parse_error(line, &error)) {
      throw std::runtime_error("server: " + error.message);
    } else {
      throw std::runtime_error("Client: unexpected line '" + line + "'");
    }
  }
  if (by_index.size() != expected_points) {
    throw std::runtime_error(
        "Client: server announced " + std::to_string(expected_points) +
        " points but streamed " + std::to_string(by_index.size()));
  }
  outcome.points.reserve(by_index.size());
  for (auto& [index, pt] : by_index) outcome.points.push_back(pt);
  return outcome;
}

}  // namespace kncube::service
