#include "net/shard_client.h"

#include <algorithm>
#include <cmath>

namespace vexus::net {

using server::Request;
using server::Response;

namespace {

/// Latency samples kept for the p99 estimate.
constexpr size_t kLatencyWindow = 128;

}  // namespace

ShardClient::ShardClient(std::string host, uint16_t port, Options options)
    : host_(std::move(host)), port_(port), options_(options) {}

std::string ShardClient::address() const {
  return host_ + ":" + std::to_string(port_);
}

void ShardClient::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  primary_.reset();
}

uint64_t ShardClient::hedges_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hedges_sent_;
}

uint64_t ShardClient::hedge_wins() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hedge_wins_;
}

double ShardClient::HedgeDelayMillis() const {
  std::lock_guard<std::mutex> lock(mu_);
  return HedgeDelayLocked();
}

Status ShardClient::EnsureConnected(const Deadline& deadline) {
  if (primary_.has_value()) return Status::OK();
  double budget =
      std::min(deadline.RemainingMillis(), options_.connect_timeout_ms);
  auto client = LineClient::Connect(host_, port_, budget);
  VEXUS_RETURN_NOT_OK(client.status());
  primary_ = std::move(client).ValueOrDie();
  return Status::OK();
}

void ShardClient::RecordLatency(double ms) {
  if (latency_ring_.size() < kLatencyWindow) {
    latency_ring_.push_back(ms);
  } else {
    latency_ring_[latency_next_ % latency_ring_.size()] = ms;
  }
  ++latency_next_;
}

double ShardClient::HedgeDelayLocked() const {
  double p99 = options_.hedge_max_ms;
  if (!latency_ring_.empty()) {
    std::vector<double> sorted = latency_ring_;
    std::sort(sorted.begin(), sorted.end());
    size_t idx = static_cast<size_t>(
        std::ceil(0.99 * static_cast<double>(sorted.size())));
    p99 = sorted[std::min(idx, sorted.size()) - (idx > 0 ? 1 : 0)];
    if (idx == 0) p99 = sorted[0];
  }
  return std::clamp(p99, options_.hedge_min_ms, options_.hedge_max_ms);
}

Result<Response> ShardClient::Call(const Request& req, double budget_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Deadline deadline = Deadline::AfterMillis(budget_ms);
  VEXUS_RETURN_NOT_OK(EnsureConnected(deadline));

  const std::string line = req.Encode();
  Stopwatch watch;
  Status sent = primary_->SendLine(line);
  if (!sent.ok()) {
    primary_.reset();
    return sent;
  }

  auto decode = [&](std::string text) -> Result<Response> {
    RecordLatency(watch.ElapsedMillis());
    return Response::Decode(text);
  };

  // First wait: the primary gets until the hedge delay (or the whole
  // budget when hedging is off / the budget is tighter).
  double first_wait = deadline.RemainingMillis();
  if (options_.hedging) {
    first_wait = std::min(first_wait, HedgeDelayLocked());
  }
  auto first = primary_->ReadLine(first_wait);
  if (first.ok()) return decode(std::move(first).ValueOrDie());
  if (first.status().code() != StatusCode::kDeadlineExceeded) {
    primary_.reset();
    return first.status();
  }
  if (!options_.hedging || deadline.Expired()) {
    primary_.reset();  // the pending response would desync the next call
    return Status::DeadlineExceeded("shard " + address() +
                                    " timed out before hedge");
  }

  // Hedge: a fresh connection re-sends the same request; alternate short
  // read laps between both until one answers. LineFramer keeps partial
  // bytes across DeadlineExceeded laps, so alternating cannot tear a
  // response. The loser is always closed — its late response must never be
  // read as a future call's answer.
  ++hedges_sent_;
  std::optional<LineClient> hedge;
  {
    double budget =
        std::min(deadline.RemainingMillis(), options_.connect_timeout_ms);
    auto client = LineClient::Connect(host_, port_, budget);
    if (client.ok()) {
      hedge = std::move(client).ValueOrDie();
      if (!hedge->SendLine(line).ok()) hedge.reset();
    }
  }
  const double lap = std::max(0.5, options_.hedge_lap_ms);
  while (!deadline.Expired()) {
    if (primary_.has_value()) {
      auto from_primary =
          primary_->ReadLine(std::min(lap, deadline.RemainingMillis()));
      if (from_primary.ok()) {
        hedge.reset();
        return decode(std::move(from_primary).ValueOrDie());
      }
      if (from_primary.status().code() != StatusCode::kDeadlineExceeded) {
        // Primary died mid-hedge; the hedge connection (if any) is now the
        // only hope and becomes the next call's primary on success.
        primary_.reset();
        if (!hedge.has_value()) return from_primary.status();
      }
    }
    if (hedge.has_value() && !deadline.Expired()) {
      auto from_hedge =
          hedge->ReadLine(std::min(lap, deadline.RemainingMillis()));
      if (from_hedge.ok()) {
        ++hedge_wins_;
        primary_ = std::move(hedge);  // old primary (if alive) is dropped
        return decode(std::move(from_hedge).ValueOrDie());
      }
      if (from_hedge.status().code() != StatusCode::kDeadlineExceeded) {
        hedge.reset();
        if (!primary_.has_value()) return from_hedge.status();
      }
    }
    if (!primary_.has_value() && !hedge.has_value()) {
      return Status::IOError("shard " + address() +
                             ": both connections failed mid-hedge");
    }
  }
  primary_.reset();
  hedge.reset();
  return Status::DeadlineExceeded("shard " + address() +
                                  " exhausted its call budget");
}

}  // namespace vexus::net
