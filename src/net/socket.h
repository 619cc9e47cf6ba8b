// POSIX socket primitives for the TCP front-end: an owning fd wrapper and
// the handful of syscall recipes (listen, connect, socketpair, fcntl) the
// event loop and clients share. Everything returns Status/Result — errno is
// translated at the boundary so the rest of the subsystem never reads it.
//
// IPv4 only for now: the front-end binds loopback or 0.0.0.0 and the
// benchmark drives loopback; AF_INET6 would be a mechanical extension.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/status.h"

namespace vexus::net {

/// Owning file descriptor (move-only RAII). Closing ignores EINTR per
/// POSIX.1-2008 semantics (the fd is gone either way on Linux).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Releases ownership without closing.
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset();

 private:
  int fd_ = -1;
};

/// Builds an errno-carrying Status ("what: strerror(errno)").
Status ErrnoStatus(const std::string& what, int err);

/// Marks `fd` nonblocking (O_NONBLOCK).
Status SetNonBlocking(int fd);

/// Disables Nagle (TCP_NODELAY) — a line-oriented request/response protocol
/// inside a 100 ms budget cannot afford 40 ms delayed-ACK stalls.
Status SetNoDelay(int fd);

/// Creates a nonblocking listening socket bound to host:port (port 0 =
/// ephemeral; SO_REUSEADDR set). On success *bound_port holds the actual
/// port (what tests and --port 0 deployments need).
///
/// `reuseport` additionally sets SO_REUSEPORT before bind, allowing several
/// listeners on the same host:port — the kernel then steers each accepted
/// connection to exactly one of them (the multi-loop front-end's listener
/// group; DESIGN.md §13.1). Every socket in the group must set it, so the
/// first listener of a group needs reuseport=true too.
Result<Fd> ListenTcp(const std::string& host, uint16_t port, int backlog,
                     uint16_t* bound_port, bool reuseport = false);

/// A "HOST:PORT" endpoint as written on a command line.
struct HostPort {
  std::string host;
  uint16_t port = 0;
};

/// Splits "HOST:PORT" at its only colon — the one parser behind every
/// address flag (`--backends`, `--connect`). HOST must be non-empty and
/// colon-free (an IPv4 address or a name: ResolveHost is AF_INET-only, so
/// IPv6 literals are rejected here rather than at connect time); PORT is
/// decimal in 1..65535. InvalidArgument otherwise. Does not resolve HOST.
Result<HostPort> ParseHostPort(const std::string& target);

/// Resolves `host` to an IPv4 socket address. Numeric dotted-quads go
/// through inet_pton (never blocks, never consults the resolver); anything
/// else falls back to getaddrinfo(AF_INET), so "localhost" and DNS names
/// work for `--connect` and shard-backend address lists. Empty or "*"
/// resolves to INADDR_ANY. InvalidArgument carries both failure modes in
/// the message ("not an IPv4 address and hostname lookup failed").
Result<sockaddr_in> ResolveHost(const std::string& host, uint16_t port);

/// Blocking-connect with a timeout (nonblocking connect + poll), returning
/// a *blocking* connected socket with TCP_NODELAY set. The simple-client
/// shape: net::LineClient and tests use this; the benchmark flips the fd
/// back to nonblocking for its multiplexed loop. The timeout is a Deadline
/// budget (common/stopwatch.h semantics): NaN/zero/negative fail fast with
/// DeadlineExceeded, >= 1e12 waits indefinitely — each poll lap is clamped
/// through PollLapTimeoutMillis, never a raw int cast.
Result<Fd> ConnectTcp(const std::string& host, uint16_t port,
                      double timeout_ms);

/// Nonblocking AF_UNIX stream pair — the Connection unit tests' harness
/// (drive OnReadable/OnWritable without a real listener).
Result<std::pair<Fd, Fd>> NonBlockingSocketPair();

/// Poll/epoll timeout (ms) for one wait lap given the remaining deadline
/// budget. Shared by every spot that narrows a double budget to the int
/// poll(2)/epoll_wait(2) expect, because the naive `static_cast<int>` is
/// wrong three ways: it is UB for NaN and for budgets beyond INT_MAX
/// (Deadline-style "infinite" sentinels like 1e12 — in practice the cast
/// went negative, which the kernel reads as "block forever", turning a
/// bounded wait into an unbounded one); and it truncates sub-millisecond
/// budgets to a busy-spinning 0 instead of rounding them up. Semantics:
/// NaN or expired → 0, sub-ms → ceil, and every lap capped (60 s) so
/// quasi-infinite budgets still re-check their deadline periodically.
int PollLapTimeoutMillis(double remaining_ms);

}  // namespace vexus::net
