#include "server/protocol.h"

#include <cmath>

namespace vexus::server {

namespace {

constexpr std::string_view kNames[kNumRequestTypes] = {
    "start_session", "select_group", "backtrack",   "bookmark",
    "unlearn",       "get_context",  "get_stats",   "end_session",
    "get_trace",     "health",       "eval_partial", "shard_info",
};

/// Reads a non-negative integer field below 2^64 into `*out` (an integer or
/// an optional one, untouched when the field is absent); fails when present
/// but ill-typed or out of range, so the conversion is always defined.
template <typename Out>
Status ReadUint(const json::Value& v, std::string_view key, Out* out) {
  const json::Value* f = v.Find(key);
  if (f == nullptr) return Status::OK();
  if (!f->is_number()) {
    return Status::InvalidArgument(std::string(key) + " must be a number");
  }
  double d = f->AsDouble();
  if (!(d >= 0 && d < 0x1p64) || std::floor(d) != d) {
    return Status::InvalidArgument(std::string(key) +
                                   " must be a non-negative integer below "
                                   "2^64");
  }
  *out = static_cast<uint64_t>(d);
  return Status::OK();
}

template <typename Out>
Status ReadUint32(const json::Value& v, std::string_view key, Out* out) {
  std::optional<uint64_t> wide;
  VEXUS_RETURN_NOT_OK(ReadUint(v, key, &wide));
  if (wide.has_value()) {
    if (*wide > UINT32_MAX) {
      return Status::InvalidArgument(std::string(key) + " out of range");
    }
    *out = static_cast<uint32_t>(*wide);
  }
  return Status::OK();
}

/// Reads an array of non-negative uint32 values; fails when present but
/// ill-typed (the eval_partial selection/trials/partials payloads).
Status ReadUint32Array(const json::Value& v, std::string_view key,
                       std::vector<uint32_t>* out) {
  const json::Value* f = v.Find(key);
  if (f == nullptr) return Status::OK();
  if (!f->is_array()) {
    return Status::InvalidArgument(std::string(key) + " must be an array");
  }
  out->clear();
  out->reserve(f->AsArray().size());
  for (const json::Value& e : f->AsArray()) {
    if (!e.is_number()) {
      return Status::InvalidArgument(std::string(key) +
                                     "[] must hold numbers");
    }
    double d = e.AsDouble();
    if (d < 0 || std::floor(d) != d || d > UINT32_MAX) {
      return Status::InvalidArgument(
          std::string(key) + "[] must hold uint32 values");
    }
    out->push_back(static_cast<uint32_t>(d));
  }
  return Status::OK();
}

json::Value Uint32ArrayToJson(const std::vector<uint32_t>& values) {
  json::Array arr;
  arr.reserve(values.size());
  for (uint32_t x : values) arr.emplace_back(json::Value(x));
  return json::Value(std::move(arr));
}

}  // namespace

std::string_view RequestTypeName(RequestType t) {
  return kNames[static_cast<size_t>(t)];
}

std::optional<RequestType> RequestTypeFromName(std::string_view name) {
  for (size_t i = 0; i < kNumRequestTypes; ++i) {
    if (kNames[i] == name) return static_cast<RequestType>(i);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

json::Value Request::ToJson() const {
  json::Object obj;
  obj.emplace_back("op", json::Value(RequestTypeName(type)));
  if (!session_id.empty()) obj.emplace_back("session", json::Value(session_id));
  if (generation != 0) obj.emplace_back("generation", json::Value(generation));
  if (budget_ms.has_value()) {
    obj.emplace_back("budget_ms", json::Value(*budget_ms));
  }
  if (group.has_value()) obj.emplace_back("group", json::Value(*group));
  if (user.has_value()) obj.emplace_back("user", json::Value(*user));
  if (step.has_value()) obj.emplace_back("step", json::Value(*step));
  if (token.has_value()) obj.emplace_back("token", json::Value(*token));
  if (top_k.has_value()) obj.emplace_back("top_k", json::Value(*top_k));
  if (k.has_value()) obj.emplace_back("k", json::Value(*k));
  if (learning_rate.has_value()) {
    obj.emplace_back("learning_rate", json::Value(*learning_rate));
  }
  if (n.has_value()) obj.emplace_back("n", json::Value(*n));
  if (slowest) obj.emplace_back("slowest", json::Value(true));
  if (shard.has_value()) obj.emplace_back("shard", json::Value(*shard));
  if (num_shards.has_value()) {
    obj.emplace_back("num_shards", json::Value(*num_shards));
  }
  if (anchor.has_value()) obj.emplace_back("anchor", json::Value(*anchor));
  if (!selection.empty()) {
    obj.emplace_back("selection", Uint32ArrayToJson(selection));
  }
  if (!trials.empty()) obj.emplace_back("trials", Uint32ArrayToJson(trials));
  return json::Value(std::move(obj));
}

Result<Request> Request::FromJson(const json::Value& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const json::Value* op = v.Find("op");
  if (op == nullptr || !op->is_string()) {
    return Status::InvalidArgument("request missing string field \"op\"");
  }
  auto type = RequestTypeFromName(op->AsString());
  if (!type.has_value()) {
    return Status::InvalidArgument("unknown op \"" + op->AsString() + "\"");
  }

  Request req;
  req.type = *type;
  req.session_id = v.GetString("session", "");

  std::optional<uint64_t> generation;
  VEXUS_RETURN_NOT_OK(ReadUint(v, "generation", &generation));
  req.generation = generation.value_or(0);

  const json::Value* budget = v.Find("budget_ms");
  if (budget != nullptr) {
    if (!budget->is_number()) {
      return Status::InvalidArgument("budget_ms must be a number");
    }
    req.budget_ms = budget->AsDouble();
  }

  VEXUS_RETURN_NOT_OK(ReadUint32(v, "group", &req.group));
  VEXUS_RETURN_NOT_OK(ReadUint32(v, "user", &req.user));
  VEXUS_RETURN_NOT_OK(ReadUint(v, "step", &req.step));
  VEXUS_RETURN_NOT_OK(ReadUint32(v, "token", &req.token));
  VEXUS_RETURN_NOT_OK(ReadUint(v, "top_k", &req.top_k));
  VEXUS_RETURN_NOT_OK(ReadUint(v, "k", &req.k));
  const json::Value* lr = v.Find("learning_rate");
  if (lr != nullptr) {
    if (!lr->is_number()) {
      return Status::InvalidArgument("learning_rate must be a number");
    }
    req.learning_rate = lr->AsDouble();
  }
  VEXUS_RETURN_NOT_OK(ReadUint(v, "n", &req.n));
  VEXUS_RETURN_NOT_OK(ReadUint32(v, "shard", &req.shard));
  VEXUS_RETURN_NOT_OK(ReadUint32(v, "num_shards", &req.num_shards));
  VEXUS_RETURN_NOT_OK(ReadUint32(v, "anchor", &req.anchor));
  VEXUS_RETURN_NOT_OK(ReadUint32Array(v, "selection", &req.selection));
  VEXUS_RETURN_NOT_OK(ReadUint32Array(v, "trials", &req.trials));
  const json::Value* slowest = v.Find("slowest");
  if (slowest != nullptr) {
    if (!slowest->is_bool()) {
      return Status::InvalidArgument("slowest must be a bool");
    }
    req.slowest = slowest->AsBool();
  }

  // Per-op required fields.
  auto require_session = [&]() -> Status {
    if (req.session_id.empty()) {
      return Status::InvalidArgument(
          std::string(RequestTypeName(req.type)) +
          " requires a non-empty \"session\"");
    }
    return Status::OK();
  };
  switch (req.type) {
    case RequestType::kStartSession:
    case RequestType::kGetContext:
    case RequestType::kEndSession:
      VEXUS_RETURN_NOT_OK(require_session());
      break;
    case RequestType::kSelectGroup:
      VEXUS_RETURN_NOT_OK(require_session());
      if (!req.group.has_value()) {
        return Status::InvalidArgument("select_group requires \"group\"");
      }
      break;
    case RequestType::kBacktrack:
      VEXUS_RETURN_NOT_OK(require_session());
      if (!req.step.has_value()) {
        return Status::InvalidArgument("backtrack requires \"step\"");
      }
      break;
    case RequestType::kBookmark:
      VEXUS_RETURN_NOT_OK(require_session());
      if (req.group.has_value() == req.user.has_value()) {
        return Status::InvalidArgument(
            "bookmark requires exactly one of \"group\" / \"user\"");
      }
      break;
    case RequestType::kUnlearn:
      VEXUS_RETURN_NOT_OK(require_session());
      if (!req.token.has_value()) {
        return Status::InvalidArgument("unlearn requires \"token\"");
      }
      break;
    case RequestType::kEvalPartial:
      if (!req.shard.has_value() || !req.num_shards.has_value()) {
        return Status::InvalidArgument(
            "eval_partial requires \"shard\" and \"num_shards\"");
      }
      if (*req.num_shards == 0 || *req.shard >= *req.num_shards) {
        return Status::InvalidArgument(
            "eval_partial shard index out of range");
      }
      if (req.trials.empty() || req.trials.size() % 2 != 0) {
        return Status::InvalidArgument(
            "eval_partial requires a non-empty even-length \"trials\" "
            "array of (candidate, slot) pairs");
      }
      break;
    case RequestType::kGetStats:
    case RequestType::kGetTrace:
    case RequestType::kHealth:
    case RequestType::kShardInfo:
      break;
  }
  return req;
}

Result<Request> Request::Decode(std::string_view line) {
  auto doc = json::Parse(line);
  VEXUS_RETURN_NOT_OK(doc.status());
  return FromJson(std::move(doc).ValueOrDie());
}

// ---------------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------------

json::Value Response::ToJson() const {
  json::Object obj;
  obj.emplace_back("op", json::Value(RequestTypeName(type)));
  obj.emplace_back("status",
                   json::Value(StatusCodeToString(status.code())));
  if (!status.ok()) obj.emplace_back("error", json::Value(status.message()));
  if (!session_id.empty()) obj.emplace_back("session", json::Value(session_id));
  if (generation != 0) obj.emplace_back("generation", json::Value(generation));
  obj.emplace_back("elapsed_ms", json::Value(elapsed_ms));
  obj.emplace_back("queue_ms", json::Value(queue_ms));

  if (!groups.empty()) {
    json::Array arr;
    arr.reserve(groups.size());
    for (const GroupView& g : groups) {
      json::Object o;
      o.emplace_back("id", json::Value(g.id));
      o.emplace_back("size", json::Value(g.size));
      o.emplace_back("description", json::Value(g.description));
      arr.emplace_back(std::move(o));
    }
    obj.emplace_back("groups", json::Value(std::move(arr)));
    obj.emplace_back("coverage", json::Value(coverage));
    obj.emplace_back("diversity", json::Value(diversity));
    obj.emplace_back("greedy_deadline_hit", json::Value(greedy_deadline_hit));
  }
  if (!context.empty()) {
    json::Array arr;
    arr.reserve(context.size());
    for (const ContextTokenView& t : context) {
      json::Object o;
      o.emplace_back("token", json::Value(t.token));
      o.emplace_back("score", json::Value(t.score));
      o.emplace_back("label", json::Value(t.label));
      arr.emplace_back(std::move(o));
    }
    obj.emplace_back("context", json::Value(std::move(arr)));
  }
  if (status.ok() &&
      (type == RequestType::kStartSession ||
       type == RequestType::kSelectGroup || type == RequestType::kBacktrack ||
       type == RequestType::kGetContext || type == RequestType::kEndSession)) {
    obj.emplace_back("step", json::Value(step));
    obj.emplace_back("num_steps", json::Value(num_steps));
    obj.emplace_back("memo_groups", json::Value(memo_groups));
    obj.emplace_back("memo_users", json::Value(memo_users));
  }
  if (degraded.has_value()) obj.emplace_back("degraded", json::Value(*degraded));
  if (covered_fraction.has_value()) {
    obj.emplace_back("covered_fraction", json::Value(*covered_fraction));
  }
  if (shard.has_value()) obj.emplace_back("shard", json::Value(*shard));
  if (num_shards.has_value()) {
    obj.emplace_back("num_shards", json::Value(*num_shards));
  }
  if (user_begin.has_value()) {
    obj.emplace_back("user_begin", json::Value(*user_begin));
  }
  if (user_end.has_value()) obj.emplace_back("user_end", json::Value(*user_end));
  if (num_groups.has_value()) {
    obj.emplace_back("num_groups", json::Value(*num_groups));
  }
  if (!partials.empty()) {
    obj.emplace_back("partials", Uint32ArrayToJson(partials));
  }
  if (stats.has_value()) obj.emplace_back("stats", *stats);
  if (traces.has_value()) obj.emplace_back("traces", *traces);
  if (health.has_value()) obj.emplace_back("health", *health);
  return json::Value(std::move(obj));
}

Result<Response> Response::FromJson(const json::Value& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  const json::Value* op = v.Find("op");
  if (op == nullptr || !op->is_string()) {
    return Status::InvalidArgument("response missing string field \"op\"");
  }
  auto type = RequestTypeFromName(op->AsString());
  if (!type.has_value()) {
    return Status::InvalidArgument("unknown op \"" + op->AsString() + "\"");
  }
  Response resp;
  resp.type = *type;
  StatusCode code = StatusCodeFromString(v.GetString("status", "Unknown"));
  resp.status = Status::FromCode(code, v.GetString("error", ""));
  resp.session_id = v.GetString("session", "");
  VEXUS_RETURN_NOT_OK(ReadUint(v, "generation", &resp.generation));
  resp.elapsed_ms = v.GetNumber("elapsed_ms", 0);
  resp.queue_ms = v.GetNumber("queue_ms", 0);
  VEXUS_RETURN_NOT_OK(ReadUint(v, "step", &resp.step));
  VEXUS_RETURN_NOT_OK(ReadUint(v, "num_steps", &resp.num_steps));
  VEXUS_RETURN_NOT_OK(ReadUint(v, "memo_groups", &resp.memo_groups));
  VEXUS_RETURN_NOT_OK(ReadUint(v, "memo_users", &resp.memo_users));
  resp.coverage = v.GetNumber("coverage", 0);
  resp.diversity = v.GetNumber("diversity", 0);
  resp.greedy_deadline_hit = v.GetBool("greedy_deadline_hit", false);

  const json::Value* groups = v.Find("groups");
  if (groups != nullptr) {
    if (!groups->is_array()) {
      return Status::InvalidArgument("groups must be an array");
    }
    for (const json::Value& g : groups->AsArray()) {
      if (!g.is_object()) {
        return Status::InvalidArgument("groups[] must hold objects");
      }
      GroupView view;
      VEXUS_RETURN_NOT_OK(ReadUint32(g, "id", &view.id));
      VEXUS_RETURN_NOT_OK(ReadUint(g, "size", &view.size));
      view.description = g.GetString("description", "");
      resp.groups.push_back(std::move(view));
    }
  }
  const json::Value* ctx = v.Find("context");
  if (ctx != nullptr) {
    if (!ctx->is_array()) {
      return Status::InvalidArgument("context must be an array");
    }
    for (const json::Value& t : ctx->AsArray()) {
      if (!t.is_object()) {
        return Status::InvalidArgument("context[] must hold objects");
      }
      ContextTokenView view;
      VEXUS_RETURN_NOT_OK(ReadUint32(t, "token", &view.token));
      view.score = t.GetNumber("score", 0);
      view.label = t.GetString("label", "");
      resp.context.push_back(std::move(view));
    }
  }
  const json::Value* degraded = v.Find("degraded");
  if (degraded != nullptr) {
    if (!degraded->is_string()) {
      return Status::InvalidArgument("degraded must be a string");
    }
    resp.degraded = degraded->AsString();
  }
  const json::Value* covered = v.Find("covered_fraction");
  if (covered != nullptr) {
    if (!covered->is_number()) {
      return Status::InvalidArgument("covered_fraction must be a number");
    }
    resp.covered_fraction = covered->AsDouble();
  }
  VEXUS_RETURN_NOT_OK(ReadUint32(v, "shard", &resp.shard));
  VEXUS_RETURN_NOT_OK(ReadUint32(v, "num_shards", &resp.num_shards));
  VEXUS_RETURN_NOT_OK(ReadUint32(v, "user_begin", &resp.user_begin));
  VEXUS_RETURN_NOT_OK(ReadUint32(v, "user_end", &resp.user_end));
  VEXUS_RETURN_NOT_OK(ReadUint(v, "num_groups", &resp.num_groups));
  VEXUS_RETURN_NOT_OK(ReadUint32Array(v, "partials", &resp.partials));
  const json::Value* stats = v.Find("stats");
  if (stats != nullptr) resp.stats = *stats;
  const json::Value* traces = v.Find("traces");
  if (traces != nullptr) resp.traces = *traces;
  const json::Value* health = v.Find("health");
  if (health != nullptr) resp.health = *health;
  return resp;
}

Result<Response> Response::Decode(std::string_view line) {
  auto doc = json::Parse(line);
  VEXUS_RETURN_NOT_OK(doc.status());
  return FromJson(std::move(doc).ValueOrDie());
}

Response ErrorResponse(const Request& req, Status status) {
  Response resp;
  resp.type = req.type;
  resp.session_id = req.session_id;
  resp.status = std::move(status);
  return resp;
}

std::string EncodeParseError(const Status& status) {
  json::Object obj;
  obj.emplace_back("op", json::Value("error"));
  obj.emplace_back("status", json::Value(StatusCodeToString(status.code())));
  obj.emplace_back("error", json::Value(status.message()));
  return json::Value(std::move(obj)).Dump();
}

// ---------------------------------------------------------------------------
// LineFramer
// ---------------------------------------------------------------------------

void LineFramer::Append(std::string_view bytes) {
  // While discarding an oversized frame, bytes up to the next '\n' never
  // need to be stored — only whether the newline arrived matters. Keeping
  // them out of buf_ is what bounds memory against a client streaming an
  // endless unterminated line.
  if (discarding_) {
    size_t nl = bytes.find('\n');
    if (nl == std::string_view::npos) return;  // still inside the monster
    bytes.remove_prefix(nl);  // keep the '\n': Next() emits the marker frame
  }
  buf_.append(bytes.data(), bytes.size());
  // Enforce the cap eagerly, not just in Next(): an unterminated tail past
  // the limit starts discarding now, so buffered() is bounded no matter how
  // the caller interleaves Append and Next.
  if (!discarding_ && buf_.find('\n', pos_) == std::string::npos &&
      buf_.size() - pos_ > options_.max_frame_bytes) {
    discarding_ = true;
    buf_.clear();
    pos_ = 0;
  }
}

std::optional<LineFramer::Frame> LineFramer::Next() {
  for (;;) {
    size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) {
      // No complete frame. Enforce the cap on the unterminated tail and
      // compact the consumed prefix so buffered() bounds real memory.
      if (buf_.size() - pos_ > options_.max_frame_bytes && !discarding_) {
        discarding_ = true;
        buf_.clear();
        pos_ = 0;
      } else if (pos_ > 0) {
        buf_.erase(0, pos_);
        pos_ = 0;
      }
      return std::nullopt;
    }
    size_t end = nl;
    if (end > pos_ && buf_[end - 1] == '\r') --end;  // CRLF tolerance
    // A complete-but-over-cap frame (its newline landed in the same read
    // chunk that crossed the limit) is surfaced as oversized too: the cap
    // is a contract on what callers may see, not just a memory bound.
    if (end - pos_ > options_.max_frame_bytes) discarding_ = true;
    Frame frame;
    if (!discarding_) frame.text.assign(buf_, pos_, end - pos_);
    pos_ = nl + 1;
    if (discarding_) {
      // The newline that ends the oversized frame: surface one marker so
      // the transport can answer a single error line, then resync.
      discarding_ = false;
      frame.text.clear();
      frame.oversized = true;
      return frame;
    }
    if (frame.text.empty()) continue;  // skip keepalive/blank lines
    return frame;
  }
}

}  // namespace vexus::server
