// ShardClient — the TCP transport behind the gather coordinator
// (server/gather.h): one shard backend, one (usually) cached LineClient
// connection, reconnect-on-demand, and tail-latency hedging.
//
// Hedging (DESIGN.md §16.3): the slow-shard tail usually comes from one
// stalled connection (a dropped packet inside the RTO, a backend thread
// descheduled mid-write), not a slow computation — the same request re-sent
// on a FRESH connection typically answers at median latency. So Call()
// first waits on the primary connection for a hedge delay derived from the
// observed p99 (clamped to [hedge_min_ms, hedge_max_ms]); if nothing
// arrived, it opens a second connection, re-sends, and alternates short
// read laps between both until one answers or the budget ends. The loser's
// connection is closed (its response, whenever it lands, must not
// desynchronize a future call's read stream). The healthy path pays zero
// extra bytes — a hedge only exists after the primary has already missed
// its p99.
//
// Thread-safety: all state is behind one mutex. The coordinator drives a
// shard from one thread per scatter, but health probes may overlap a lap.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/client.h"
#include "server/gather.h"

namespace vexus::net {

class ShardClient : public server::ShardTransport {
 public:
  struct Options {
    /// Budget for (re)connecting, clamped to the call budget.
    double connect_timeout_ms = 1000;
    /// Hedge-delay clamp. The delay itself tracks the observed p99; the
    /// floor keeps loopback tests from hedging on scheduler noise, the
    /// ceiling bounds how long a stalled connection can stretch the tail
    /// (the BENCH_gather slow-shard p99 gate).
    double hedge_min_ms = 5;
    double hedge_max_ms = 50;
    /// Read-lap width while alternating between primary and hedge.
    double hedge_lap_ms = 2;
    /// 0 disables hedging (single read against the full budget).
    bool hedging = true;
  };

  ShardClient(std::string host, uint16_t port, Options options);
  ShardClient(std::string host, uint16_t port)
      : ShardClient(std::move(host), port, Options()) {}

  Result<server::Response> Call(const server::Request& req,
                                double budget_ms) override;
  void Reset() override;
  std::string address() const override;

  /// Hedge accounting (tests + membership stats).
  uint64_t hedges_sent() const;
  uint64_t hedge_wins() const;

  /// Current hedge delay (p99 estimate after clamping) — test surface.
  double HedgeDelayMillis() const;

 private:
  /// Ensures `primary_` is connected; consumes from `deadline`.
  Status EnsureConnected(const Deadline& deadline);
  void RecordLatency(double ms);
  double HedgeDelayLocked() const;

  std::string host_;
  uint16_t port_;
  Options options_;

  mutable std::mutex mu_;
  std::optional<LineClient> primary_;
  std::vector<double> latency_ring_;
  size_t latency_next_ = 0;
  uint64_t hedges_sent_ = 0;
  uint64_t hedge_wins_ = 0;
};

}  // namespace vexus::net
