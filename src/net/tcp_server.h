// TcpServer — N independent epoll event loops serving the line-JSON wire
// protocol behind one SO_REUSEPORT listener group (DESIGN.md §13).
//
//            kernel steers each connect to exactly one loop
//                 │                │                 │
//        ┌────────▼───────┐ ┌─────▼──────────┐ ┌────▼───────────┐
//        │ loop 0         │ │ loop 1         │ │ loop N-1       │
//        │ listener fd    │ │ listener fd    │ │ listener fd    │
//        │ epoll + wakeup │ │ epoll + wakeup │ │ epoll + wakeup │
//        │ conn table     │ │ conn table     │ │ conn table     │
//        │ completion q   │ │ completion q   │ │ completion q   │
//        └───────▲────────┘ └──────▲─────────┘ └───────▲────────┘
//                └───────────┬─────┴───────────────────┘
//                   worker threads (Dispatcher) push each
//                   completion to its OWNING loop's queue
//
// Threading model: every socket, Connection object, and epoll set belongs
// to exactly ONE event-loop thread for its whole life — the kernel's
// SO_REUSEPORT steering decides which loop at accept time and nothing ever
// migrates. A loop never computes a screen; the service's worker pool
// executes requests and completions cross back via the owning loop's
// mutex-guarded queue plus an eventfd (net/wakeup.h). The eventfd is rung
// only on the queue's empty→nonempty transition: one wakeup retires every
// completion pending for that loop (batched drain), not one wakeup per
// completion. Loops share nothing but the service pointer, the aggregate
// connection counter, and the overload controller.
//
// Deadlines: request lines are submitted to the Dispatcher synchronously
// inside the read handler, so the admission-stamped deadline starts at
// socket read time — queueing, worker time, and (for the client) response
// serialization all count against the explorer's 100 ms budget, exactly as
// the in-process path behaves.
//
// Overload: the Dispatcher's ladder applies unchanged (it is the same
// Dispatcher, fed only by its own queue delay). The loops read the rung but
// never feed it: a reader that stops draining its socket is bounded by
// write_buffer_cap and kWriteStallTimeoutMs, not by degrading everyone
// else's screens. Slow/idle clients are disconnected per loop, aggressively
// so when the ladder is escalated (§13.3).
//
// Drain (SIGTERM sequence): RequestDrain() is async-signal-safe (one atomic
// store + one eventfd write per loop). Each loop then independently
// (1) closes its listener — the kernel re-steers stragglers to remaining
// listeners until all are gone; (2) stops reading request bytes;
// (3) lets admitted requests complete and flushes their responses;
// (4) closes each connection once drained, force-closing stragglers after
// drain_timeout_ms. Drain() joins all loops and then settles stragglers so
// every admitted request is retired exactly once, per loop and in
// aggregate (the conservation property the chaos harness storms with net
// failpoints).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "net/connection.h"
#include "net/socket.h"
#include "net/wakeup.h"
#include "server/service.h"

namespace vexus::net {

/// listen(2) backlog of every listener.
inline constexpr int kListenBacklog = 512;
/// A response stalled unflushed in the write buffer for this long marks a
/// dead-slow reader; the connection is closed (quartered under overload).
/// The write_buffer_cap handles fast-filling buffers; this handles readers
/// that stop ACKing entirely.
inline constexpr double kWriteStallTimeoutMs = 10'000;

struct TcpServerOptions {
  /// Bind address. Loopback by default: exposing an unauthenticated
  /// exploration service on a routable interface is an explicit choice.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (read the actual port from port() after Start()).
  uint16_t port = 0;
  /// Event-loop threads, each owning a SO_REUSEPORT listener, an epoll
  /// instance, and a private connection table. 0 = min(4, hw threads).
  /// With 1 the server binds a single plain listener (no SO_REUSEPORT),
  /// byte-for-byte the pre-multi-loop behavior.
  size_t num_loops = 0;
  /// Accepted connections beyond this are immediately closed (the
  /// fd-exhaustion guard; the dispatcher's ladder guards CPU). Enforced on
  /// the aggregate across loops; racing accepts on different loops may
  /// overshoot by at most num_loops - 1.
  size_t max_connections = 4096;
  ConnectionOptions connection;
  /// Connections with no traffic and no work in flight for this long are
  /// closed (quartered while the overload ladder is at stale or above).
  double idle_timeout_ms = 60'000;
  /// Event-loop housekeeping cadence (idle scan, stall scan, drain checks).
  double tick_ms = 100;
  /// Force-close window of the drain sequence.
  double drain_timeout_ms = 10'000;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Setting it
  /// locks out kernel autotuning (which otherwise grows send buffers to
  /// megabytes), so the slow-client tests can fill the userspace write
  /// buffer deterministically instead of racing a 4 MB kernel cushion.
  int so_sndbuf = 0;
};

/// Monotonic counters. Each loop thread writes its own set; Stats() returns
/// the aggregate and LoopStats(i) one loop's share — conservation
/// (`requests_submitted == responses_routed + responses_dropped` once
/// drained) holds for both views.
struct TcpServerStats {
  uint64_t accepted = 0;
  uint64_t accept_rejected = 0;     // over max_connections
  uint64_t accept_faults = 0;       // injected via net.accept
  uint64_t lines_framed = 0;
  uint64_t parse_errors = 0;
  uint64_t oversized_lines = 0;
  uint64_t requests_submitted = 0;  // handed to DispatchAsync
  uint64_t responses_routed = 0;    // completion matched a live connection
  uint64_t responses_dropped = 0;   // completion for an already-dead conn
  uint64_t peer_closes = 0;
  uint64_t io_error_closes = 0;     // transport errors (incl. injected)
  uint64_t idle_closes = 0;
  uint64_t slow_client_closes = 0;  // write cap or stall timeout
  uint64_t drain_forced_closes = 0;
};

class TcpServer {
 public:
  /// `service` must outlive the server (callbacks in flight at destruction
  /// are dropped via a shared alive flag, but the service pool itself is
  /// not owned here).
  TcpServer(server::ExplorationService* service, TcpServerOptions options = {});

  /// Drains (idempotent) and joins every loop.
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds + listens every loop's listener synchronously (so callers see
  /// bind errors), then starts the event-loop threads. Call at most once.
  Status Start();

  /// Actual bound port (valid after a successful Start(); all listeners of
  /// the SO_REUSEPORT group share it).
  uint16_t port() const { return port_; }

  /// Resolved loop count (valid after construction).
  size_t num_loops() const { return num_loops_; }

  /// Effective options after constructor normalization (e.g. a non-finite
  /// or non-positive tick_ms falls back to the default) — what the event
  /// loops actually run with. Regression surface for the epoll-timeout
  /// clamp.
  const TcpServerOptions& options() const { return options_; }

  /// Triggers the drain sequence without blocking. Async-signal-safe: one
  /// atomic store and one eventfd write per loop — install it in a SIGTERM
  /// handler.
  void RequestDrain();

  /// RequestDrain + join. Returns once every connection on every loop is
  /// closed and all loops have exited. Idempotent.
  void Drain();

  /// True from RequestDrain() on (new connections are being refused).
  bool draining() const { return drain_requested_.load(std::memory_order_relaxed); }

  size_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

  /// Aggregate across loops.
  TcpServerStats Stats() const;
  /// One loop's counters (loop < num_loops()).
  TcpServerStats LoopStats(size_t loop) const;

 private:
  struct Completion {
    uint64_t conn_id;
    uint64_t seq;
    std::string line;
  };
  /// Shared between worker callbacks and the owning loop; outlives both via
  /// shared_ptr so a completion firing after ~TcpServer only touches the
  /// alive flag and the (still-allocated) queue.
  struct CompletionQueue;
  /// Condvar shared across every loop's queue: each post-drain retirement
  /// (a straggler worker's Push() landing on a dead queue) notifies it, so
  /// Drain() waits event-driven instead of quantizing straggler latency to
  /// a fixed sleep period.
  struct RetireSignal;
  /// Counters (loop-thread writes; relaxed atomics so Stats() is callable
  /// from tests/benchmarks while the loops run).
  struct AtomicStats;
  /// One event loop: listener, epoll, wakeup, completion queue, connection
  /// table, stats, drain state, and the thread driving them. Defined in
  /// tcp_server.cc — nothing outside the server touches one.
  struct EventLoop;

  server::ExplorationService* service_;
  TcpServerOptions options_;
  size_t num_loops_ = 1;
  uint16_t port_ = 0;
  bool started_ = false;
  bool drained_ = false;

  std::shared_ptr<RetireSignal> retire_signal_;

  std::atomic<bool> drain_requested_{false};
  /// Aggregate live-connection count (the max_connections gate); each loop
  /// fetch_add/sub's around its table updates.
  std::atomic<size_t> active_connections_{0};

  std::vector<std::unique_ptr<EventLoop>> loops_;
};

}  // namespace vexus::net
