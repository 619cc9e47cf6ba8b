// Typed request/response protocol of the exploration service.
//
// One request or response per line, encoded as a compact JSON object — the
// framing a future socket front-end needs, and what lets tests and
// examples/service_repl.cpp drive the service from scripted strings today.
//
// Request grammar (field order free; unknown fields ignored):
//
//   {"op":"start_session","session":"alice","k":5,"budget_ms":100}
//   {"op":"select_group","session":"alice","group":12}
//   {"op":"backtrack","session":"alice","step":0}
//   {"op":"bookmark","session":"alice","group":12}
//   {"op":"bookmark","session":"alice","user":7}
//   {"op":"unlearn","session":"alice","token":3401}
//   {"op":"get_context","session":"alice","top_k":8}
//   {"op":"get_stats"}
//   {"op":"get_trace","n":5,"slowest":true}
//   {"op":"end_session","session":"alice"}
//   {"op":"health"}
//
// Every session-scoped request may also carry:
//   "generation": <uint>  — stale-handle fencing; a mismatch with the live
//                           session's generation fails with NotFound.
//   "budget_ms": <double> — per-request deadline; the dispatcher starts the
//                           clock at *admission*, so queueing time counts
//                           against the budget (paper P3: the explorer
//                           experiences end-to-end latency, not server CPU).
//
// Responses echo "op" and "session", carry "status" (StatusCodeToString
// name) plus "error" when not OK, the session "generation", timing fields,
// and an op-specific payload (shown groups, context tokens, digest, or a
// metrics snapshot).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "server/json.h"

namespace vexus::server {

enum class RequestType : int {
  kStartSession = 0,
  kSelectGroup = 1,
  kBacktrack = 2,
  kBookmark = 3,
  kUnlearn = 4,
  kGetContext = 5,
  kGetStats = 6,
  kEndSession = 7,
  kGetTrace = 8,
  kHealth = 9,
  /// Shard-backend op (DESIGN.md §16): a batch of greedy trial-coverage
  /// partials over this backend's user range. The gather coordinator is the
  /// only intended client.
  kEvalPartial = 10,
  /// Shard-backend identity probe: shard index, shard count, user range,
  /// and store generation — what the coordinator's membership table tracks.
  kShardInfo = 11,
};
inline constexpr size_t kNumRequestTypes = 12;

/// Wire name of an op ("start_session", ...).
std::string_view RequestTypeName(RequestType t);
/// Inverse of RequestTypeName; nullopt for unknown ops.
std::optional<RequestType> RequestTypeFromName(std::string_view name);

/// A decoded client request. Optional fields keep "absent" distinct from
/// "zero" so the service can apply its own defaults.
struct Request {
  RequestType type = RequestType::kGetStats;
  std::string session_id;
  /// Stale-handle fence: 0 means "don't check".
  uint64_t generation = 0;
  /// End-to-end budget; unset -> service default (the paper's 100 ms).
  std::optional<double> budget_ms;

  // --- op payloads (validity depends on `type`) ---
  std::optional<uint32_t> group;       // select_group / bookmark
  std::optional<uint32_t> user;        // bookmark
  std::optional<uint64_t> step;        // backtrack
  std::optional<uint32_t> token;       // unlearn
  std::optional<uint64_t> top_k;       // get_context: at most 1,000
  std::optional<uint64_t> k;           // start_session: groups per screen
  std::optional<double> learning_rate; // start_session
  std::optional<uint64_t> n;           // get_trace: how many traces
  bool slowest = false;                // get_trace: slowest-N vs last-N

  // --- eval_partial payload (DESIGN.md §16) ---
  /// Expected shard identity; a backend serving a different (shard,
  /// num_shards) pair answers FailedPrecondition — the coordinator treats
  /// that like any other shard failure.
  std::optional<uint32_t> shard;       // eval_partial: expected shard index
  std::optional<uint32_t> num_shards;  // eval_partial: expected shard count
  /// Anchor group id; absent on the initial screen (universe coverage).
  std::optional<uint32_t> anchor;
  /// The current selection, as group ids in slot order (rest-table order).
  std::vector<uint32_t> selection;
  /// Flat (candidate group id, slot) pairs: [c0, p0, c1, p1, ...]. Kept
  /// flat so a candidate-window batch of thousands of trials stays far
  /// under the 1 MiB frame cap.
  std::vector<uint32_t> trials;

  json::Value ToJson() const;
  std::string Encode() const { return ToJson().Dump(); }

  /// Decodes one request line. Fails with InvalidArgument on syntax errors,
  /// unknown ops, missing required fields, or ill-typed payloads.
  static Result<Request> Decode(std::string_view line);
  static Result<Request> FromJson(const json::Value& v);
};

/// One shown group, denormalized so a thin client needs no group store.
struct GroupView {
  uint32_t id = 0;
  uint64_t size = 0;
  std::string description;
};

/// One CONTEXT token (feedback state), denormalized likewise.
struct ContextTokenView {
  uint32_t token = 0;
  double score = 0;
  std::string label;
};

/// A service response. `status` uses the common Status vocabulary:
///   DeadlineExceeded  — budget exhausted before/while handling
///   NotFound          — unknown/evicted session or stale generation
///   ResourceExhausted — shed by backpressure or admission control
struct Response {
  RequestType type = RequestType::kGetStats;
  Status status;
  std::string session_id;
  uint64_t generation = 0;

  /// Service-side handling time (queue + execute), milliseconds.
  double elapsed_ms = 0;
  /// Of which: time spent waiting for a worker.
  double queue_ms = 0;

  // --- payload (populated per op) ---
  std::vector<GroupView> groups;        // start/select/backtrack: the screen
  std::vector<ContextTokenView> context;  // get_context
  uint64_t step = 0;                    // current HISTORY position
  uint64_t num_steps = 0;               // HISTORY length
  uint64_t memo_groups = 0;             // MEMO sizes (bookmark/end/context)
  uint64_t memo_users = 0;
  double coverage = 0;                  // screen quality (start/select)
  double diversity = 0;
  bool greedy_deadline_hit = false;     // anytime loop truncated?
  /// Set when this answer's screen is not the full-effort one: "effort"
  /// (the overload ladder's shrunken greedy budget cut the run), "stale"
  /// (cached screen replayed, no greedy run), or "partial" (gather shards
  /// missed their lap deadline or sat open-circuit, so the screen was
  /// scored over a subset of the user universe). Absent when full-fidelity.
  std::optional<std::string> degraded;
  /// With degraded:"partial": the fraction of the user universe the folded
  /// shards covered, in [0, 1]. Absent on full-coverage answers.
  std::optional<double> covered_fraction;

  // --- shard-backend payloads (eval_partial / shard_info) ---
  std::optional<uint32_t> shard;       // this backend's shard index
  std::optional<uint32_t> num_shards;  // this backend's shard count
  std::optional<uint32_t> user_begin;  // owned user range [begin, end)
  std::optional<uint32_t> user_end;
  std::optional<uint64_t> num_groups;  // shard_info: groups in the slice
  /// eval_partial: one newly-covered count per request trial, in order.
  std::vector<uint32_t> partials;
  std::optional<json::Value> stats;     // get_stats: metrics snapshot object
  std::optional<json::Value> traces;    // get_trace: array of span trees
  std::optional<json::Value> health;    // health: liveness/readiness object

  json::Value ToJson() const;
  std::string Encode() const { return ToJson().Dump(); }

  static Result<Response> Decode(std::string_view line);
  static Result<Response> FromJson(const json::Value& v);
};

/// Convenience factory for an error response mirroring `req`.
Response ErrorResponse(const Request& req, Status status);

/// The synthetic `{"op":"error",...}` line answered when a request line
/// cannot even be decoded (no typed op exists to mirror). Shared by
/// ExplorationService::HandleLine and the socket front-end so both paths
/// answer byte-identical parse errors.
std::string EncodeParseError(const Status& status);

/// Incremental '\n' framing over a byte stream — the one line-splitting
/// implementation every transport shares (the TCP connection parser, the
/// REPL's --connect client, the socket benchmark's response reader).
///
/// Framing rules, chosen so one misbehaving line can never desynchronize
/// the stream:
///   * A frame is the bytes up to (excluding) the next '\n'. A trailing
///     '\r' is stripped (CRLF clients: telnet, netcat -C, Windows pipes).
///   * Empty frames (bare "\n" or "\r\n") are skipped, not surfaced —
///     they are keepalive/sloppy-script noise, not requests.
///   * Malformed JSON containing a *raw* newline is, by construction, two
///     (or more) frames: each fails Request::Decode independently and each
///     is answered with its own per-line parse error, after which the
///     stream is back in sync. The framer never buffers across '\n'
///     waiting for a parse to succeed — that is the desync failure mode
///     this class exists to prevent (a parser that accumulates until the
///     JSON closes would swallow every subsequent valid request into the
///     broken first one).
///   * A frame longer than `max_frame_bytes` cannot be buffered (one hostile
///     client would otherwise balloon server memory). The framer drops the
///     oversized prefix, keeps *discarding* until the next '\n', then emits
///     a single frame flagged `oversized` so the transport can answer one
///     error line and resume normally — again: resync, never desync.
class LineFramer {
 public:
  struct Options {
    /// Longest frame the framer will buffer. 1 MiB is ~100× the largest
    /// legitimate response (a full get_stats snapshot) and far beyond any
    /// request.
    size_t max_frame_bytes = 1 << 20;
  };

  struct Frame {
    std::string text;
    /// True when this frame stands in for one that exceeded
    /// max_frame_bytes (its bytes were discarded; `text` is empty).
    bool oversized = false;
  };

  LineFramer() : LineFramer(Options()) {}
  explicit LineFramer(Options options) : options_(options) {
    if (options_.max_frame_bytes == 0) options_.max_frame_bytes = 1;
  }

  /// Feeds bytes read from the transport.
  void Append(std::string_view bytes);

  /// Pops the next complete frame, or nullopt when more bytes are needed.
  std::optional<Frame> Next();

  /// Bytes buffered awaiting a newline (bounded by max_frame_bytes).
  size_t buffered() const { return buf_.size() - pos_; }
  /// True while discarding an oversized frame (waiting for its '\n').
  bool discarding() const { return discarding_; }

 private:
  Options options_;
  std::string buf_;
  size_t pos_ = 0;        // consumed prefix of buf_
  bool discarding_ = false;
};

}  // namespace vexus::server
