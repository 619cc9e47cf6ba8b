// Connection — one accepted socket's read/parse/write state machine.
//
// Deliberately loop-agnostic: it owns the fd, the LineFramer, the pipeline
// bookkeeping, and the write buffer, but performs I/O only when its owner
// calls OnReadable()/OnWritable(). The TcpServer event loop drives it off
// epoll; the unit tests drive it off a socketpair with no loop at all.
//
// Pipelining. Clients may send many request lines without waiting. Each
// framed line gets a monotonically increasing slot number `seq` and is
// handed to the owner's LineSink; completions arrive via Complete(seq, ...)
// in *any* order (worker threads finish when they finish) but are flushed
// to the socket strictly in seq order — a line protocol has no request ids,
// so arrival order is the only correlation a client has (same contract as
// Redis/HTTP-1.1 pipelining).
//
// Backpressure, both directions:
//   * inbound  — when `max_pipelined` requests are in flight the connection
//     reports paused() and OnReadable() stops consuming the socket; the
//     owner drops EPOLLIN until completions drain the pipeline. The kernel
//     socket buffer then fills and TCP pushes back on the sender.
//   * outbound — responses queue in an in-memory write buffer while the
//     socket is unwritable (EPOLLOUT re-armed by the owner). A reader that
//     stalls while responses keep completing would grow that buffer without
//     bound, so crossing `write_buffer_cap` flips over_write_cap() and the
//     owner disconnects the slow client (DESIGN.md §13.4).
//
// Failpoints: "net.conn.read" and "net.conn.write" inject transport
// failures (ECONNRESET-equivalents) at the recv/send boundaries so the
// chaos harness can kill connections mid-request and mid-response.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "common/stopwatch.h"
#include "net/socket.h"
#include "server/protocol.h"

namespace vexus::net {

/// recv() chunk size of every connection read.
inline constexpr size_t kReadChunkBytes = 16 * 1024;

struct ConnectionOptions {
  /// Longest request line buffered before the framer discards and answers
  /// an oversized-line error (server/protocol.h LineFramer).
  size_t max_line_bytes = 1 << 20;
  /// Unflushed response bytes beyond which the peer is a slow client and
  /// gets disconnected.
  size_t write_buffer_cap = 1 << 20;
  /// In-flight (submitted, uncompleted) requests beyond which reading
  /// pauses.
  size_t max_pipelined = 64;
};

class Connection {
 public:
  /// One framed request line, already assigned its pipeline slot. Called
  /// synchronously from OnReadable() on the owner's thread. `oversized`
  /// frames carry no text (the bytes were discarded; answer an error).
  using LineSink =
      std::function<void(uint64_t seq, std::string line, bool oversized)>;

  enum class IoStatus {
    kOk,          ///< made progress (possibly none); keep the connection
    kPeerClosed,  ///< orderly EOF from the peer
    kError,       ///< transport error (or injected fault); drop the peer
  };

  /// `loop_id` tags the connection with the index of the event loop that
  /// owns it (0 in single-loop servers and loop-less unit tests). Purely a
  /// label: per-loop ownership is enforced by the owner never sharing the
  /// object, but stats attribution and log lines need to say which loop a
  /// socket lived on.
  Connection(Fd fd, uint64_t id, ConnectionOptions options, LineSink on_line,
             size_t loop_id = 0);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Drains the socket (until EAGAIN, EOF, or paused()) and emits complete
  /// lines to the sink.
  IoStatus OnReadable();

  /// Flushes as much of the write buffer as the socket accepts.
  IoStatus OnWritable();

  /// Delivers the encoded response line (no trailing '\n') for slot `seq`.
  /// Out-of-order friendly; contiguous-from-head responses move to the
  /// write buffer immediately. Call OnWritable() afterwards to push bytes.
  void Complete(uint64_t seq, std::string encoded);

  /// Emits any lines still sitting in the framer (up to the pipeline cap).
  /// OnReadable() does this implicitly; the owner calls it whenever
  /// completions free pipeline slots — excess frames from a large burst
  /// live here with the kernel buffer possibly empty, so no epoll event
  /// will ever surface them (half-closed or not). No-op while paused.
  void EmitBufferedLines();

  // --- state the owner polls to manage epoll interest & lifecycle ---
  bool wants_write() const { return !out_.empty(); }
  bool paused() const { return in_flight() >= options_.max_pipelined; }
  bool over_write_cap() const {
    return out_.size() - out_offset_ > options_.write_buffer_cap;
  }
  /// Requests emitted to the sink but not yet Complete()d.
  uint64_t in_flight() const { return next_seq_ - completed_; }
  /// True when every emitted request was completed *and* flushed — the
  /// "safe to close" predicate the drain sequence waits on.
  bool drained() const { return in_flight() == 0 && out_.empty(); }
  /// Milliseconds since the last byte moved in either direction.
  double idle_ms() const { return last_activity_.ElapsedMillis(); }
  /// Milliseconds since the write buffer last flushed a byte while holding
  /// unflushed data (0 when empty). The slow-client signal the server feeds
  /// into the overload controller — a reader making steady progress keeps
  /// resetting this clock even if its buffer never fully drains.
  double write_stall_ms() const {
    return out_.empty() ? 0.0 : oldest_unflushed_.ElapsedMillis();
  }

  int fd() const { return fd_.get(); }
  uint64_t id() const { return id_; }
  size_t loop_id() const { return loop_id_; }
  uint64_t responses_flushed() const { return responses_flushed_; }

  /// Peer sent EOF but responses are still in flight/unflushed: the owner
  /// marks the connection lame-duck and closes it once drained().
  void set_peer_eof() { peer_eof_ = true; }
  bool peer_eof() const { return peer_eof_; }

 private:
  Fd fd_;
  uint64_t id_;
  size_t loop_id_;
  ConnectionOptions options_;
  LineSink on_line_;
  server::LineFramer framer_;

  uint64_t next_seq_ = 0;    // next pipeline slot to assign
  uint64_t completed_ = 0;   // Complete() calls received
  uint64_t next_flush_ = 0;  // next seq the write buffer is waiting for
  std::map<uint64_t, std::string> out_of_order_;  // completed, gap ahead

  std::string out_;          // ordered, encoded, '\n'-terminated responses
  size_t out_offset_ = 0;    // flushed prefix of out_
  Stopwatch oldest_unflushed_;  // restarted on empty→nonempty and on every
                                // flush that makes progress

  Stopwatch last_activity_;
  bool peer_eof_ = false;
  uint64_t responses_flushed_ = 0;
};

}  // namespace vexus::net
