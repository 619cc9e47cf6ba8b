#include "server/protocol.h"

#include <string>

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace vexus::server {
namespace {

TEST(RequestTypeTest, NamesRoundTrip) {
  for (size_t i = 0; i < kNumRequestTypes; ++i) {
    auto t = static_cast<RequestType>(i);
    auto back = RequestTypeFromName(RequestTypeName(t));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(RequestTypeFromName("no_such_op").has_value());
}

TEST(RequestDecodeTest, StartSessionWithOptions) {
  auto r = Request::Decode(
      "{\"op\":\"start_session\",\"session\":\"alice\",\"k\":5,"
      "\"budget_ms\":100,\"learning_rate\":0.25,\"generation\":0}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->type, RequestType::kStartSession);
  EXPECT_EQ(r->session_id, "alice");
  EXPECT_EQ(r->k, uint64_t{5});
  EXPECT_EQ(r->budget_ms, 100.0);
  EXPECT_EQ(r->learning_rate, 0.25);
}

TEST(RequestDecodeTest, UnknownFieldsIgnored) {
  auto r = Request::Decode(
      "{\"op\":\"get_stats\",\"client_version\":\"9.9\",\"extra\":[1,2]}");
  EXPECT_TRUE(r.ok());
}

TEST(RequestDecodeTest, MissingOpFails) {
  EXPECT_FALSE(Request::Decode("{\"session\":\"a\"}").ok());
  EXPECT_FALSE(Request::Decode("{\"op\":\"warp\"}").ok());
  EXPECT_FALSE(Request::Decode("[]").ok());
  EXPECT_FALSE(Request::Decode("not json at all").ok());
}

TEST(RequestDecodeTest, PerOpRequiredFields) {
  // Session-scoped ops demand a session id.
  EXPECT_FALSE(Request::Decode("{\"op\":\"start_session\"}").ok());
  EXPECT_FALSE(Request::Decode("{\"op\":\"end_session\"}").ok());
  // select_group needs group.
  EXPECT_FALSE(
      Request::Decode("{\"op\":\"select_group\",\"session\":\"a\"}").ok());
  // backtrack needs step.
  EXPECT_FALSE(
      Request::Decode("{\"op\":\"backtrack\",\"session\":\"a\"}").ok());
  // unlearn needs token.
  EXPECT_FALSE(Request::Decode("{\"op\":\"unlearn\",\"session\":\"a\"}").ok());
  // bookmark needs exactly one of group/user.
  EXPECT_FALSE(Request::Decode("{\"op\":\"bookmark\",\"session\":\"a\"}").ok());
  EXPECT_FALSE(
      Request::Decode(
          "{\"op\":\"bookmark\",\"session\":\"a\",\"group\":1,\"user\":2}")
          .ok());
  EXPECT_TRUE(
      Request::Decode("{\"op\":\"bookmark\",\"session\":\"a\",\"group\":1}")
          .ok());
  EXPECT_TRUE(
      Request::Decode("{\"op\":\"bookmark\",\"session\":\"a\",\"user\":2}")
          .ok());
  // get_stats needs nothing.
  EXPECT_TRUE(Request::Decode("{\"op\":\"get_stats\"}").ok());
}

TEST(RequestDecodeTest, IllTypedFieldsFail) {
  EXPECT_FALSE(
      Request::Decode(
          "{\"op\":\"select_group\",\"session\":\"a\",\"group\":\"x\"}")
          .ok());
  EXPECT_FALSE(
      Request::Decode(
          "{\"op\":\"select_group\",\"session\":\"a\",\"group\":-1}")
          .ok());
  EXPECT_FALSE(
      Request::Decode(
          "{\"op\":\"select_group\",\"session\":\"a\",\"group\":1.5}")
          .ok());
  EXPECT_FALSE(
      Request::Decode(
          "{\"op\":\"select_group\",\"session\":\"a\",\"group\":4294967296}")
          .ok());  // > UINT32_MAX
  EXPECT_FALSE(
      Request::Decode("{\"op\":\"get_stats\",\"budget_ms\":\"fast\"}").ok());
}

// Integers on the wire arrive as doubles. Out-of-range ones (1e30, and
// 1e400, which parses as infinity) must be rejected, not converted: the
// conversion would be undefined behaviour.
constexpr const char* kBadUints[] = {"1e30", "1e400", "-1", "1.5",
                                     "18446744073709551616"};

TEST(RequestDecodeTest, OutOfRangeIntegersAreInvalidArgument) {
  for (const char* bad : kBadUints) {
    for (const std::string& line :
         {StrCat("{\"op\":\"backtrack\",\"session\":\"x\",\"step\":", bad,
                 "}"),
          StrCat("{\"op\":\"get_stats\",\"generation\":", bad, "}"),
          StrCat("{\"op\":\"select_group\",\"session\":\"x\",\"group\":",
                 bad, "}")}) {
      auto r = Request::Decode(line);
      ASSERT_FALSE(r.ok()) << line;
      EXPECT_TRUE(r.status().IsInvalidArgument()) << line;
    }
  }
  // The largest double below 2^64 still converts.
  auto top = Request::Decode(
      "{\"op\":\"backtrack\",\"session\":\"x\","
      "\"step\":18446744073709549568}");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(*top->step, 18446744073709549568u);
}

TEST(ResponseCodecTest, OutOfRangeIntegersAreInvalidArgument) {
  for (const char* bad : kBadUints) {
    const std::string head = "{\"op\":\"select_group\",\"status\":\"OK\",";
    for (const std::string& line :
         {StrCat(head, "\"generation\":", bad, "}"),
          StrCat(head, "\"step\":", bad, "}"),
          StrCat(head, "\"num_steps\":", bad, "}"),
          StrCat(head, "\"memo_groups\":", bad, "}"),
          StrCat(head, "\"memo_users\":", bad, "}"),
          StrCat(head, "\"groups\":[{\"id\":", bad, ",\"size\":1}]}"),
          StrCat(head, "\"groups\":[{\"id\":1,\"size\":", bad, "}]}"),
          StrCat(head, "\"context\":[{\"token\":", bad, ",\"score\":1}]}")}) {
      auto r = Response::Decode(line);
      ASSERT_FALSE(r.ok()) << line;
      EXPECT_TRUE(r.status().IsInvalidArgument()) << line;
    }
  }
  // Absent fields stay 0.
  auto bare = Response::Decode("{\"op\":\"health\",\"status\":\"OK\"}");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_EQ(bare->generation, 0u);
  EXPECT_EQ(bare->num_steps, 0u);
}

TEST(RequestDecodeTest, WarmFromSnapshotIsUnknownOp) {
  // Services are complete at construction; there is no warm-up op.
  auto r = Request::Decode(
      "{\"op\":\"warm_from_snapshot\",\"path\":\"/var/lib/vexus/bx.snap\"}");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("unknown op"), std::string::npos);
}

TEST(RequestCodecTest, EncodeDecodeRoundTrip) {
  Request req;
  req.type = RequestType::kSelectGroup;
  req.session_id = "bob";
  req.generation = 42;
  req.budget_ms = 75.5;
  req.group = 12;
  auto back = Request::Decode(req.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->type, req.type);
  EXPECT_EQ(back->session_id, "bob");
  EXPECT_EQ(back->generation, 42u);
  EXPECT_EQ(back->budget_ms, 75.5);
  EXPECT_EQ(back->group, uint32_t{12});
  EXPECT_FALSE(back->user.has_value());
}

TEST(ResponseCodecTest, ErrorResponseCarriesStatus) {
  Request req;
  req.type = RequestType::kSelectGroup;
  req.session_id = "carol";
  Response resp = ErrorResponse(req, Status::NotFound("no such session"));
  auto back = Response::Decode(resp.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, RequestType::kSelectGroup);
  EXPECT_TRUE(back->status.IsNotFound());
  EXPECT_EQ(back->status.message(), "no such session");
  EXPECT_EQ(back->session_id, "carol");
}

TEST(ResponseCodecTest, ScreenPayloadRoundTrips) {
  Response resp;
  resp.type = RequestType::kSelectGroup;
  resp.session_id = "s";
  resp.generation = 3;
  resp.step = 1;
  resp.num_steps = 2;
  resp.memo_groups = 1;
  resp.memo_users = 4;
  resp.coverage = 0.75;
  resp.diversity = 0.5;
  resp.greedy_deadline_hit = true;
  resp.groups.push_back({7, 123, "age=[20,30] AND city=Paris"});
  resp.groups.push_back({9, 55, "gender=F"});
  auto back = Response::Decode(resp.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->status.ok());
  ASSERT_EQ(back->groups.size(), 2u);
  EXPECT_EQ(back->groups[0].id, 7u);
  EXPECT_EQ(back->groups[0].size, 123u);
  EXPECT_EQ(back->groups[0].description, "age=[20,30] AND city=Paris");
  EXPECT_EQ(back->generation, 3u);
  EXPECT_EQ(back->step, 1u);
  EXPECT_EQ(back->num_steps, 2u);
  EXPECT_EQ(back->memo_users, 4u);
  EXPECT_EQ(back->coverage, 0.75);
  EXPECT_TRUE(back->greedy_deadline_hit);
}

TEST(ResponseCodecTest, ContextPayloadRoundTrips) {
  Response resp;
  resp.type = RequestType::kGetContext;
  resp.session_id = "s";
  resp.context.push_back({11, 0.5, "city=Lyon"});
  resp.context.push_back({3, -0.25, "age=[40,50]"});
  auto back = Response::Decode(resp.Encode());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->context.size(), 2u);
  EXPECT_EQ(back->context[0].token, 11u);
  EXPECT_EQ(back->context[0].score, 0.5);
  EXPECT_EQ(back->context[1].label, "age=[40,50]");
}

TEST(ResponseCodecTest, DeadlineExceededStatusRoundTrips) {
  Response resp;
  resp.type = RequestType::kStartSession;
  resp.status = Status::DeadlineExceeded("budget exhausted");
  auto back = Response::Decode(resp.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->status.IsDeadlineExceeded());
}

}  // namespace
}  // namespace vexus::server
