#include "net/connection.h"

#include <cerrno>
#include <sys/socket.h>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"

namespace vexus::net {

Connection::Connection(Fd fd, uint64_t id, ConnectionOptions options,
                       LineSink on_line, size_t loop_id)
    : fd_(std::move(fd)),
      id_(id),
      loop_id_(loop_id),
      options_(options),
      on_line_(std::move(on_line)),
      framer_([&] {
        server::LineFramer::Options f;
        f.max_frame_bytes = options.max_line_bytes;
        return f;
      }()) {
  VEXUS_CHECK(fd_.valid());
  VEXUS_CHECK(on_line_ != nullptr);
}

void Connection::EmitBufferedLines() {
  while (!paused()) {
    auto frame = framer_.Next();
    if (!frame.has_value()) break;
    uint64_t seq = next_seq_++;
    on_line_(seq, std::move(frame->text), frame->oversized);
  }
}

Connection::IoStatus Connection::OnReadable() {
  // Chaos site: a read fault models the peer vanishing (RST, mid-request
  // power loss) the instant bytes were expected.
  if (VEXUS_FAILPOINT_FIRES("net.conn.read")) return IoStatus::kError;

  char buf[kReadChunkBytes];
  for (;;) {
    // Emit everything already framed before deciding whether to read more:
    // pausing must count lines buffered this pass, and a paused connection
    // must not keep pulling bytes it cannot yet answer.
    EmitBufferedLines();
    if (paused()) return IoStatus::kOk;

    ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      last_activity_.Restart();
      framer_.Append(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      // Orderly EOF. Lines already framed still deserve answers — surface
      // them (up to the pipeline cap) so a client that writes-then-
      // shutdowns gets its responses; the owner keeps calling
      // EmitBufferedLines() as completions drain the pipeline.
      EmitBufferedLines();
      return IoStatus::kPeerClosed;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOk;
    if (errno == EINTR) continue;
    return IoStatus::kError;
  }
}

Connection::IoStatus Connection::OnWritable() {
  // Chaos site: a write fault models the peer resetting while a response
  // was being delivered (the answered-but-never-received case conservation
  // accounting must survive).
  if (VEXUS_FAILPOINT_FIRES("net.conn.write")) return IoStatus::kError;

  bool progressed = false;
  while (out_offset_ < out_.size()) {
    ssize_t n = ::send(fd_.get(), out_.data() + out_offset_,
                       out_.size() - out_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      out_offset_ += static_cast<size_t>(n);
      last_activity_.Restart();
      progressed = true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return IoStatus::kError;
  }
  // The stall clock measures time since the last flushed byte, not time
  // since the buffer became nonempty: a reader making steady progress whose
  // buffer never fully drains is slow, not stalled — it must neither be
  // disconnected at the stall timeout nor feed inflated ages into the
  // overload controller.
  if (progressed) oldest_unflushed_.Restart();
  if (out_offset_ == out_.size()) {
    out_.clear();
    out_offset_ = 0;
  } else if (out_offset_ > options_.write_buffer_cap / 2) {
    // Compact so over_write_cap() measures *unflushed* bytes, not history.
    out_.erase(0, out_offset_);
    out_offset_ = 0;
  }
  return IoStatus::kOk;
}

void Connection::Complete(uint64_t seq, std::string encoded) {
  VEXUS_DCHECK(seq < next_seq_);
  ++completed_;
  out_of_order_.emplace(seq, std::move(encoded));
  // Move the contiguous head of the pipeline into the write buffer: seq
  // order is the wire order (see the pipelining contract in the header).
  bool was_empty = out_.empty();
  auto it = out_of_order_.begin();
  while (it != out_of_order_.end() && it->first == next_flush_) {
    out_.append(it->second);
    out_.push_back('\n');
    ++next_flush_;
    ++responses_flushed_;
    it = out_of_order_.erase(it);
  }
  if (was_empty && !out_.empty()) oldest_unflushed_.Restart();
}

}  // namespace vexus::net
