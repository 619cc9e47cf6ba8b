#include "net/socket.h"

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/stopwatch.h"

namespace vexus::net {

void Fd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status ErrnoStatus(const std::string& what, int err) {
  return Status::IOError(what + ": " + std::strerror(err));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)", errno);
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(F_SETFL, O_NONBLOCK)", errno);
  }
  return Status::OK();
}

Status SetNoDelay(int fd) {
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return ErrnoStatus("setsockopt(TCP_NODELAY)", errno);
  }
  return Status::OK();
}

Result<HostPort> ParseHostPort(const std::string& target) {
  const size_t colon = target.find(':');
  if (colon == std::string::npos || colon == 0 ||
      target.find(':', colon + 1) != std::string::npos) {
    return Status::InvalidArgument(
        "\"" + target + "\" is not HOST:PORT (HOST an IPv4 address or name)");
  }
  const std::string port = target.substr(colon + 1);
  // At most five digits, so strtoul cannot overflow before the range check.
  const unsigned long value =
      !port.empty() && port.size() <= 5 &&
              port.find_first_not_of("0123456789") == std::string::npos
          ? std::strtoul(port.c_str(), nullptr, 10)
          : 0;
  if (value == 0 || value > 65535) {
    return Status::InvalidArgument("\"" + target + "\": port \"" + port +
                                   "\" is not in 1..65535");
  }
  return HostPort{target.substr(0, colon), static_cast<uint16_t>(value)};
}

Result<sockaddr_in> ResolveHost(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "*") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    return addr;
  }
  // Numeric first: a dotted quad must never block on the resolver (the
  // event loop and the gather client's reconnect laps call this on hot
  // paths with numeric addresses).
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    if (res != nullptr) ::freeaddrinfo(res);
    return Status::InvalidArgument(
        "cannot resolve \"" + host + "\": not an IPv4 address and hostname " +
        "lookup failed (" + (rc != 0 ? ::gai_strerror(rc) : "no result") +
        ")");
  }
  addr.sin_addr =
      reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return addr;
}

Result<Fd> ListenTcp(const std::string& host, uint16_t port, int backlog,
                     uint16_t* bound_port, bool reuseport) {
  auto addr = ResolveHost(host, port);
  VEXUS_RETURN_NOT_OK(addr.status());

  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return ErrnoStatus("socket", errno);
  int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    return ErrnoStatus("setsockopt(SO_REUSEADDR)", errno);
  }
  if (reuseport &&
      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) <
          0) {
    return ErrnoStatus("setsockopt(SO_REUSEPORT)", errno);
  }
  sockaddr_in sa = addr.ValueOrDie();
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) <
      0) {
    return ErrnoStatus("bind(" + host + ":" + std::to_string(port) + ")",
                       errno);
  }
  if (::listen(fd.get(), backlog) < 0) return ErrnoStatus("listen", errno);
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual), &len) <
        0) {
      return ErrnoStatus("getsockname", errno);
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

Result<Fd> ConnectTcp(const std::string& host, uint16_t port,
                      double timeout_ms) {
  auto addr = ResolveHost(host.empty() ? "127.0.0.1" : host, port);
  VEXUS_RETURN_NOT_OK(addr.status());

  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return ErrnoStatus("socket", errno);
  sockaddr_in sa = addr.ValueOrDie();
  int rc =
      ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  if (rc < 0 && errno != EINPROGRESS) return ErrnoStatus("connect", errno);
  if (rc < 0) {
    // In progress: wait for writability, then read the final verdict. The
    // budget runs through Deadline + PollLapTimeoutMillis — the former bare
    // static_cast<int>(timeout_ms) was UB for NaN and for infinite-sentinel
    // budgets (1e12 cast negative, which poll(2) reads as "block forever").
    Deadline deadline = Deadline::AfterMillis(timeout_ms);
    for (;;) {
      pollfd pfd{fd.get(), POLLOUT, 0};
      int n = ::poll(&pfd, 1, PollLapTimeoutMillis(deadline.RemainingMillis()));
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("poll(connect)", errno);
      }
      if (n > 0) break;
      if (deadline.Expired()) {
        return Status::DeadlineExceeded("connect to " + host + ":" +
                                        std::to_string(port) + " timed out");
      }
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      return ErrnoStatus("getsockopt(SO_ERROR)", errno);
    }
    if (err != 0) {
      return ErrnoStatus(
          "connect to " + host + ":" + std::to_string(port), err);
    }
  }
  // Back to blocking: the simple-client contract (see socket.h).
  int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 ||
      ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(clear O_NONBLOCK)", errno);
  }
  VEXUS_RETURN_NOT_OK(SetNoDelay(fd.get()));
  return fd;
}

Result<std::pair<Fd, Fd>> NonBlockingSocketPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   fds) < 0) {
    return ErrnoStatus("socketpair", errno);
  }
  return std::make_pair(Fd(fds[0]), Fd(fds[1]));
}

int PollLapTimeoutMillis(double remaining_ms) {
  // NaN compares false against everything, so it falls through to the
  // "expired" lap below — matching Deadline::AfterMillis, which treats a
  // NaN budget as born-expired.
  if (!(remaining_ms > 0)) return 0;
  // Cap each lap: the deadline (not poll) owns the total wait, and capping
  // keeps the int cast in-range for Deadline's 1e12-style infinite
  // sentinels (the pre-fix cast of those values was UB; see socket.h).
  constexpr double kMaxLapMs = 60'000;
  return static_cast<int>(std::ceil(std::min(remaining_ms, kMaxLapMs)));
}

}  // namespace vexus::net
