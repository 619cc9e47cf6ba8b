#include "net/tcp_server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "server/overload.h"

namespace vexus::net {

using server::ExplorationService;
using server::OverloadRung;
using server::Request;

struct TcpServer::AtomicStats {
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> accept_rejected{0};
  std::atomic<uint64_t> accept_faults{0};
  std::atomic<uint64_t> lines_framed{0};
  std::atomic<uint64_t> parse_errors{0};
  std::atomic<uint64_t> oversized_lines{0};
  std::atomic<uint64_t> requests_submitted{0};
  std::atomic<uint64_t> responses_routed{0};
  std::atomic<uint64_t> responses_dropped{0};
  std::atomic<uint64_t> peer_closes{0};
  std::atomic<uint64_t> io_error_closes{0};
  std::atomic<uint64_t> idle_closes{0};
  std::atomic<uint64_t> slow_client_closes{0};
  std::atomic<uint64_t> drain_forced_closes{0};

  void AddTo(TcpServerStats* out) const {
    auto load = [](const std::atomic<uint64_t>& c) {
      return c.load(std::memory_order_relaxed);
    };
    out->accepted += load(accepted);
    out->accept_rejected += load(accept_rejected);
    out->accept_faults += load(accept_faults);
    out->lines_framed += load(lines_framed);
    out->parse_errors += load(parse_errors);
    out->oversized_lines += load(oversized_lines);
    out->requests_submitted += load(requests_submitted);
    out->responses_routed += load(responses_routed);
    out->responses_dropped += load(responses_dropped);
    out->peer_closes += load(peer_closes);
    out->io_error_closes += load(io_error_closes);
    out->idle_closes += load(idle_closes);
    out->slow_client_closes += load(slow_client_closes);
    out->drain_forced_closes += load(drain_forced_closes);
  }
};

namespace {

inline void Bump(std::atomic<uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

}  // namespace

struct TcpServer::RetireSignal {
  std::mutex mu;
  std::condition_variable cv;

  /// Locks mu around the notify so a waiter between its predicate check
  /// and the cv wait cannot miss the wakeup.
  void Notify() {
    std::lock_guard<std::mutex> lock(mu);
    cv.notify_all();
  }
};

struct TcpServer::CompletionQueue {
  std::mutex mu;
  std::vector<Completion> pending;
  bool alive = true;  // guarded by mu; false once the owning loop is gone
  Wakeup wakeup;
  /// Shared with the loop's stats so a completion landing after the loop
  /// exited still retires its request as dropped (the conservation
  /// invariant `submitted == routed + dropped` must survive late workers).
  std::shared_ptr<AtomicStats> stats;
  /// Server-wide; notified whenever a dead-queue Push retires a request.
  std::shared_ptr<RetireSignal> retire;

  void Push(Completion c) {
    bool was_empty = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!alive) {
        // Loop gone: no connection can receive these bytes anymore.
        Bump(stats->responses_dropped);
        retire->Notify();
        return;
      }
      was_empty = pending.empty();
      pending.push_back(std::move(c));
    }
    // Batched wakeup: ring the doorbell only on the empty→nonempty
    // transition. The loop drains the whole queue per wakeup, so every
    // completion pushed while the queue is nonempty rides the wakeup
    // already in flight — N completions, one eventfd write, one epoll
    // return. (A push racing the loop's swap sees the fresh-empty queue
    // and signals again; worst case is one spurious no-op drain.)
    if (was_empty) wakeup.Signal();
  }
};

/// One event loop. Owns its listener, epoll set, connection table, and
/// counters outright; shares only the completion queue (with workers), the
/// server's aggregate connection count, and the drain request flag. All
/// methods below run on this loop's thread.
struct TcpServer::EventLoop {
  TcpServer* server = nullptr;
  size_t index = 0;

  Fd listener;
  Fd epoll;
  std::thread thread;
  std::shared_ptr<CompletionQueue> cq;
  std::shared_ptr<AtomicStats> stats;

  bool drain_started = false;  // loop-thread view of the server-wide flag
  Stopwatch drain_watch;
  uint64_t next_conn_seq = 1;
  struct ConnEntry {
    std::unique_ptr<Connection> conn;
    uint32_t epoll_mask = 0;
  };
  std::unordered_map<uint64_t, ConnEntry> conns;

  EventLoop(TcpServer* s, size_t i)
      : server(s),
        index(i),
        cq(std::make_shared<CompletionQueue>()),
        stats(std::make_shared<AtomicStats>()) {
    cq->stats = stats;
    cq->retire = s->retire_signal_;
  }

  /// Conn ids are globally unique (the loop index rides the high bits) so
  /// log lines and stats attribution never confuse two loops' sockets; the
  /// epoll sentinel tags 0 (listener) and UINT64_MAX (wakeup) stay
  /// unreachable.
  uint64_t NextConnId() {
    return (static_cast<uint64_t>(index) << 48) | next_conn_seq++;
  }

  void Run();
  void HandleAccept();
  void HandleConnEvent(uint64_t conn_id, uint32_t events);
  void OnLine(uint64_t conn_id, uint64_t seq, std::string line,
              bool oversized);
  void DrainCompletions();
  void Tick();
  void StartDrainOnce();
  /// Flush, then re-derive the epoll interest mask; closes slow clients.
  void FlushAndUpdate(uint64_t conn_id);
  void UpdateInterest(uint64_t conn_id);
  void CloseConn(uint64_t conn_id);
};

TcpServer::TcpServer(ExplorationService* service, TcpServerOptions options)
    : service_(service),
      options_(std::move(options)),
      retire_signal_(std::make_shared<RetireSignal>()) {
  VEXUS_CHECK(service_ != nullptr);
  // `!(x > 0)` and not `x <= 0`: NaN compares false both ways, so the old
  // form let a NaN tick through to the epoll timeout cast below (UB).
  if (!(options_.tick_ms > 0)) options_.tick_ms = 100;
  num_loops_ = options_.num_loops;
  if (num_loops_ == 0) {
    const size_t hw = std::max(1u, std::thread::hardware_concurrency());
    num_loops_ = std::min<size_t>(4, hw);
  }
}

TcpServer::~TcpServer() { Drain(); }

Status TcpServer::Start() {
  VEXUS_CHECK(!started_) << "Start() called twice";
  // One listener per loop, all on the same port. With several loops the
  // whole group runs SO_REUSEPORT (every member must set it, including the
  // first); the kernel then steers each accepted connection to exactly one
  // loop. Listener 0 resolves an ephemeral port for the rest of the group.
  const bool reuseport = num_loops_ > 1;
  for (size_t i = 0; i < num_loops_; ++i) {
    auto loop = std::make_unique<EventLoop>(this, i);
    const uint16_t want = i == 0 ? options_.port : port_;
    auto listener = ListenTcp(options_.host, want, kListenBacklog,
                              i == 0 ? &port_ : nullptr, reuseport);
    VEXUS_RETURN_NOT_OK(listener.status());
    loop->listener = std::move(listener).ValueOrDie();

    loop->epoll = Fd(::epoll_create1(EPOLL_CLOEXEC));
    if (!loop->epoll.valid()) return ErrnoStatus("epoll_create1", errno);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // 0 = listener, UINT64_MAX = wakeup, else conn id
    if (::epoll_ctl(loop->epoll.get(), EPOLL_CTL_ADD, loop->listener.get(),
                    &ev) < 0) {
      return ErrnoStatus("epoll_ctl(listener)", errno);
    }
    ev.events = EPOLLIN;
    ev.data.u64 = UINT64_MAX;
    if (::epoll_ctl(loop->epoll.get(), EPOLL_CTL_ADD, loop->cq->wakeup.fd(),
                    &ev) < 0) {
      return ErrnoStatus("epoll_ctl(wakeup)", errno);
    }
    loops_.push_back(std::move(loop));
  }

  started_ = true;
  for (auto& loop : loops_) {
    EventLoop* lp = loop.get();
    lp->thread = std::thread([lp] { lp->Run(); });
  }
  return Status::OK();
}

void TcpServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  // Async-signal-safe: relaxed loads over a vector that is immutable after
  // Start(), plus one eventfd write per loop.
  for (auto& loop : loops_) loop->cq->wakeup.Signal();
}

void TcpServer::Drain() {
  if (!started_ || drained_) return;
  RequestDrain();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  drained_ = true;
  for (auto& loop : loops_) {
    // Final sweep per loop: completions pushed between the loop's last
    // DrainCompletions() and its exit have no connection left to route to.
    // Count them as dropped; anything later drops (and counts) at Push().
    std::lock_guard<std::mutex> lock(loop->cq->mu);
    loop->cq->alive = false;
    for (size_t i = 0; i < loop->cq->pending.size(); ++i) {
      Bump(loop->stats->responses_dropped);
    }
    loop->cq->pending.clear();
  }
  // Workers may still be finishing requests whose connections were fault-
  // or force-closed; their Push() calls retire them as dropped. Wait
  // (bounded) for those stragglers so Stats() read right after Drain()
  // observes the conservation invariant — aggregate implies per-loop here,
  // because every loop's retired count can only lag (never exceed) its
  // submitted count. Event-driven: each dead-queue Push notifies
  // retire_signal_, so drain completes the instant the last straggler
  // retires instead of quantizing to a poll period; the lap cap only
  // bounds the wait against a worker that never finishes.
  const auto retired = [this] {
    TcpServerStats s = Stats();
    return s.responses_routed + s.responses_dropped >= s.requests_submitted;
  };
  Deadline deadline = Deadline::AfterMillis(options_.drain_timeout_ms);
  std::unique_lock<std::mutex> lock(retire_signal_->mu);
  while (!retired() && !deadline.Expired()) {
    int lap = PollLapTimeoutMillis(deadline.RemainingMillis());
    if (lap <= 0) break;
    retire_signal_->cv.wait_for(lock, std::chrono::milliseconds(lap));
  }
}

TcpServerStats TcpServer::Stats() const {
  TcpServerStats s;
  for (const auto& loop : loops_) loop->stats->AddTo(&s);
  return s;
}

TcpServerStats TcpServer::LoopStats(size_t loop) const {
  TcpServerStats s;
  VEXUS_CHECK(loop < loops_.size());
  loops_[loop]->stats->AddTo(&s);
  return s;
}

// ---------------------------------------------------------------------------
// Event loop (all methods below run on the owning loop's thread)
// ---------------------------------------------------------------------------

void TcpServer::EventLoop::Run() {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  Stopwatch since_tick;
  const double tick_ms = server->options_.tick_ms;

  for (;;) {
    // Shared lap clamp (socket.h), not a bare cast: a sub-millisecond tick
    // used to truncate to 0 (a busy-spinning epoll), and a tick beyond
    // INT_MAX cast to a negative timeout the kernel reads as "block
    // forever" — which parked the loop and stopped idle/stall sweeps and
    // drain checks entirely.
    int timeout = PollLapTimeoutMillis(tick_ms);
    int n = ::epoll_wait(epoll.get(), events, kMaxEvents, timeout);
    if (n < 0 && errno != EINTR) {
      VEXUS_LOG(Error) << "loop " << index
                       << " epoll_wait: " << std::strerror(errno);
      break;
    }

    for (int i = 0; i < std::max(n, 0); ++i) {
      uint64_t tag = events[i].data.u64;
      if (tag == 0) {
        HandleAccept();
      } else if (tag == UINT64_MAX) {
        cq->wakeup.Drain();
      } else {
        HandleConnEvent(tag, events[i].events);
      }
    }

    DrainCompletions();

    if (server->drain_requested_.load(std::memory_order_relaxed)) {
      StartDrainOnce();
    }

    if (since_tick.ElapsedMillis() >= tick_ms || drain_started) {
      since_tick.Restart();
      Tick();
    }

    if (drain_started && conns.empty()) break;
  }
}

void TcpServer::EventLoop::HandleAccept() {
  for (;;) {
    int raw = ::accept4(listener.get(), nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      // EMFILE/ENFILE & friends: drop this attempt, keep serving. The
      // kernel already completed the handshake; nothing to free but our
      // patience.
      return;
    }
    Fd fd(raw);
    // Chaos site: the accept path failing post-handshake (fd table
    // pressure, a TLS layer rejecting). The client sees a close.
    if (VEXUS_FAILPOINT_FIRES("net.accept")) {
      Bump(stats->accept_faults);
      continue;  // Fd closes raw
    }
    if (drain_started ||
        server->active_connections_.load(std::memory_order_relaxed) >=
            server->options_.max_connections) {
      Bump(stats->accept_rejected);
      continue;
    }
    (void)SetNoDelay(fd.get());
    if (server->options_.so_sndbuf > 0) {
      ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF,
                   &server->options_.so_sndbuf,
                   sizeof(server->options_.so_sndbuf));
    }

    uint64_t id = NextConnId();
    ConnEntry entry;
    entry.conn = std::make_unique<Connection>(
        std::move(fd), id, server->options_.connection,
        [this, id](uint64_t seq, std::string line, bool oversized) {
          OnLine(id, seq, std::move(line), oversized);
        },
        index);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, entry.conn->fd(), &ev) < 0) {
      Bump(stats->accept_rejected);
      continue;  // entry.conn closes the fd
    }
    entry.epoll_mask = EPOLLIN;
    conns.emplace(id, std::move(entry));
    Bump(stats->accepted);
    server->active_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void TcpServer::EventLoop::OnLine(uint64_t conn_id, uint64_t seq,
                                  std::string line, bool oversized) {
  Bump(stats->lines_framed);
  auto it = conns.find(conn_id);
  VEXUS_DCHECK(it != conns.end());  // sink fires from inside the conn

  if (oversized) {
    Bump(stats->oversized_lines);
    it->second.conn->Complete(
        seq, server::EncodeParseError(Status::InvalidArgument(
                 "request line exceeds " +
                 std::to_string(
                     server->options_.connection.max_line_bytes) +
                 " bytes")));
    return;
  }
  auto req = Request::Decode(line);
  if (!req.ok()) {
    // Per-line parse error: answer and stay in sync — a malformed request
    // (even one whose raw '\n' split it into several frames) never desyncs
    // the stream (server/protocol.h LineFramer contract).
    Bump(stats->parse_errors);
    it->second.conn->Complete(seq, server::EncodeParseError(req.status()));
    return;
  }

  Bump(stats->requests_submitted);
  // Submitted at read time: the Dispatcher stamps the deadline now, so the
  // budget covers queueing and execution from the moment the bytes arrived.
  // The callback captures THIS loop's queue — completions always route back
  // to the loop that owns the connection.
  std::shared_ptr<CompletionQueue> queue = cq;
  server->service_->DispatchAsync(
      std::move(req).ValueOrDie(),
      [queue, conn_id, seq](server::Response resp) {
        // Worker thread: serialize here (off the loop), then hand over.
        queue->Push(Completion{conn_id, seq, resp.Encode()});
      });
}

void TcpServer::EventLoop::HandleConnEvent(uint64_t conn_id,
                                           uint32_t events) {
  auto it = conns.find(conn_id);
  if (it == conns.end()) return;  // closed earlier this batch
  Connection* conn = it->second.conn.get();

  if ((events & (EPOLLHUP | EPOLLERR)) != 0 &&
      (events & (EPOLLIN | EPOLLOUT)) == 0) {
    Bump(stats->io_error_closes);
    CloseConn(conn_id);
    return;
  }

  if ((events & EPOLLOUT) != 0) {
    if (conn->OnWritable() == Connection::IoStatus::kError) {
      Bump(stats->io_error_closes);
      CloseConn(conn_id);
      return;
    }
  }
  if ((events & EPOLLIN) != 0 && !drain_started && !conn->peer_eof()) {
    switch (conn->OnReadable()) {
      case Connection::IoStatus::kOk:
        break;
      case Connection::IoStatus::kPeerClosed:
        Bump(stats->peer_closes);
        conn->set_peer_eof();
        break;
      case Connection::IoStatus::kError:
        Bump(stats->io_error_closes);
        CloseConn(conn_id);
        return;
    }
  }
  FlushAndUpdate(conn_id);
}

void TcpServer::EventLoop::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(cq->mu);
    batch.swap(cq->pending);
  }
  for (Completion& c : batch) {
    auto it = conns.find(c.conn_id);
    if (it == conns.end()) {
      // The connection died (slow client, fault, force-close) while its
      // request executed. The request itself was retired by the
      // dispatcher; only the bytes have nowhere to go.
      Bump(stats->responses_dropped);
      continue;
    }
    Bump(stats->responses_routed);
    it->second.conn->Complete(c.seq, std::move(c.line));
    // Completions free pipeline slots. Requests framed beyond the cap sit
    // in the framer with the kernel buffer possibly already empty, so
    // re-arming level-triggered EPOLLIN alone would never surface them —
    // emit them now (a no-op while still paused or when nothing is
    // buffered). This applies to live peers, not just half-closed ones.
    it->second.conn->EmitBufferedLines();
  }
  // Flush + interest updates once per touched connection would need a set;
  // connections are few per batch in practice, so just sweep the batch.
  for (Completion& c : batch) {
    if (conns.count(c.conn_id) != 0) FlushAndUpdate(c.conn_id);
  }
}

void TcpServer::EventLoop::FlushAndUpdate(uint64_t conn_id) {
  auto it = conns.find(conn_id);
  if (it == conns.end()) return;
  Connection* conn = it->second.conn.get();

  if (conn->wants_write()) {
    if (conn->OnWritable() == Connection::IoStatus::kError) {
      Bump(stats->io_error_closes);
      CloseConn(conn_id);
      return;
    }
  }
  if (conn->over_write_cap()) {
    // Slow client: responses are completing faster than the peer reads.
    // Disconnecting is the only move that protects the loop's memory; the
    // explorer can reconnect and start_session again.
    Bump(stats->slow_client_closes);
    CloseConn(conn_id);
    return;
  }
  if ((conn->peer_eof() || drain_started) && conn->drained()) {
    CloseConn(conn_id);
    return;
  }
  UpdateInterest(conn_id);
}

void TcpServer::EventLoop::UpdateInterest(uint64_t conn_id) {
  auto it = conns.find(conn_id);
  if (it == conns.end()) return;
  ConnEntry& entry = it->second;
  uint32_t mask = 0;
  if (!entry.conn->paused() && !entry.conn->peer_eof() && !drain_started) {
    mask |= EPOLLIN;
  }
  if (entry.conn->wants_write()) mask |= EPOLLOUT;
  if (mask == entry.epoll_mask) return;
  epoll_event ev{};
  ev.events = mask;
  ev.data.u64 = conn_id;
  if (::epoll_ctl(epoll.get(), EPOLL_CTL_MOD, entry.conn->fd(), &ev) == 0) {
    entry.epoll_mask = mask;
  }
}

void TcpServer::EventLoop::CloseConn(uint64_t conn_id) {
  auto it = conns.find(conn_id);
  if (it == conns.end()) return;
  // Chaos site: widen the window between deciding to close and the fd
  // actually dying (a peer racing its last pipelined write).
  VEXUS_FAILPOINT_HIT("net.conn.close");
  ::epoll_ctl(epoll.get(), EPOLL_CTL_DEL, it->second.conn->fd(), nullptr);
  conns.erase(it);
  server->active_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void TcpServer::EventLoop::StartDrainOnce() {
  if (drain_started) return;
  drain_started = true;
  drain_watch.Restart();
  // 1. Refuse new connections at the kernel. (With several loops the group
  // shrinks one listener at a time; a connect racing the teardown lands on
  // a not-yet-closed member and drains there — never on a dead socket.)
  ::epoll_ctl(epoll.get(), EPOLL_CTL_DEL, listener.get(), nullptr);
  listener.Reset();
  // 2. Stop reading request bytes; flush/close what can be.
  std::vector<uint64_t> ids;
  ids.reserve(conns.size());
  for (auto& [id, entry] : conns) ids.push_back(id);
  for (uint64_t id : ids) FlushAndUpdate(id);
}

void TcpServer::EventLoop::Tick() {
  const OverloadRung rung = server->service_->dispatcher().overload().rung();
  // Under sustained overload the ladder is already sacrificing answer
  // quality; transport-side patience shrinks too, reclaiming fds and write
  // buffers from clients that aren't keeping up (DESIGN.md §13.3).
  const double tighten = rung >= OverloadRung::kStale ? 0.25 : 1.0;
  const double idle_limit = server->options_.idle_timeout_ms * tighten;
  const double stall_limit = kWriteStallTimeoutMs * tighten;

  std::vector<uint64_t> idle, stalled;
  for (auto& [id, entry] : conns) {
    Connection* conn = entry.conn.get();
    if (conn->write_stall_ms() > stall_limit) {
      stalled.push_back(id);
    } else if (conn->idle_ms() > idle_limit && conn->in_flight() == 0 &&
               !conn->wants_write()) {
      idle.push_back(id);
    }
  }
  for (uint64_t id : stalled) {
    Bump(stats->slow_client_closes);
    CloseConn(id);
  }
  for (uint64_t id : idle) {
    Bump(stats->idle_closes);
    CloseConn(id);
  }

  if (drain_started) {
    std::vector<uint64_t> ids;
    ids.reserve(conns.size());
    for (auto& [id, entry] : conns) ids.push_back(id);
    if (drain_watch.ElapsedMillis() > server->options_.drain_timeout_ms) {
      for (uint64_t id : ids) {
        Bump(stats->drain_forced_closes);
        CloseConn(id);
      }
    } else {
      for (uint64_t id : ids) FlushAndUpdate(id);
    }
  }
}

}  // namespace vexus::net
