#include "server/trace_log.h"

#include <algorithm>

namespace vexus::server {

TraceLog::TraceLog(const TraceLogOptions& options) : options_(options) {
  if (options_.capacity < 1) options_.capacity = 1;
  ring_.reserve(options_.capacity);
  for (size_t i = 0; i < options_.capacity; ++i) {
    ring_.push_back(std::make_unique<Slot>());
  }
}

void TraceLog::Record(TraceRecord record) {
  if (!options_.enabled) return;
  offered_.fetch_add(1, std::memory_order_relaxed);
  // Slow-request filter. budget_ms <= 0 encodes "unbounded": no finite wall
  // time is a fraction of an infinite budget, so only a 0 threshold (record
  // everything) admits those.
  if (options_.slow_fraction > 0) {
    if (record.budget_ms <= 0) return;
    if (record.total_ms < options_.slow_fraction * record.budget_ms) return;
  }
  uint64_t seq = recorded_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.seq = seq;
  Slot& slot = *ring_[(seq - 1) % ring_.size()];
  std::lock_guard<std::mutex> lock(slot.mu);
  // A lapped writer may race a slower writer for the same slot; keep the
  // newer record (higher seq) so LastN stays monotone.
  if (slot.record.seq < seq) slot.record = std::move(record);
}

std::vector<TraceRecord> TraceLog::Snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  for (const auto& slot : ring_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->record.valid()) out.push_back(slot->record);
  }
  return out;
}

std::vector<TraceRecord> TraceLog::LastN(size_t n) const {
  std::vector<TraceRecord> all = Snapshot();
  std::sort(all.begin(), all.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.seq > b.seq;  // newest first
            });
  if (all.size() > n) all.resize(n);
  return all;
}

std::vector<TraceRecord> TraceLog::SlowestN(size_t n) const {
  std::vector<TraceRecord> all = Snapshot();
  std::sort(all.begin(), all.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.seq > b.seq;  // ties: more recent first
            });
  if (all.size() > n) all.resize(n);
  return all;
}

json::Value TraceLog::ToJson(const TraceRecord& record) {
  // Members go in through the out-of-line Set: GCC 12 reports a false
  // -Warray-bounds when vector<pair<string, Value>>::emplace_back is
  // inlined here.
  json::Value out{json::Object{}};
  out.Set("seq", json::Value(record.seq));
  out.Set("op", json::Value(record.op));
  if (!record.session_id.empty()) {
    out.Set("session", json::Value(record.session_id));
  }
  out.Set("status", json::Value(record.status));
  out.Set("budget_ms", json::Value(record.budget_ms));
  out.Set("total_ms", json::Value(record.total_ms));
  out.Set("queue_ms", json::Value(record.queue_ms));
  json::Array spans;
  if (record.trace != nullptr) {
    uint64_t dropped = record.trace->dropped();
    if (dropped > 0) out.Set("dropped_spans", json::Value(dropped));
    for (const Trace::Span& s : record.trace->spans()) {
      json::Object so;
      so.emplace_back("name", json::Value(std::string(s.name)));
      so.emplace_back("parent", json::Value(s.parent));
      so.emplace_back("start_us", json::Value(s.start_us));
      so.emplace_back("duration_us", json::Value(s.duration_us));
      if (s.count > 0) so.emplace_back("count", json::Value(s.count));
      spans.push_back(json::Value(std::move(so)));
    }
  }
  out.Set("spans", json::Value(std::move(spans)));
  return out;
}

}  // namespace vexus::server
