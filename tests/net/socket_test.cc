// Socket-primitive regression tests.
//
// ConnectTcp's wait loop used to narrow its budget with a bare
// `static_cast<int>(timeout_ms)` — UB for NaN and for quasi-infinite
// Deadline sentinels (1e12 cast negative, which poll(2) reads as "block
// forever"). Against a SYN-dropping target that turned a bounded connect
// into an unbounded one. The tests below fail (by hanging) on that code.
//
// ResolveHost is the numeric-first resolver the gather client's reconnect
// laps and the --backends flag share: dotted quads must never touch the
// resolver; names go through getaddrinfo(AF_INET).
//
// ParseHostPort is the one HOST:PORT parser behind --backends and
// --connect: an empty host, a non-numeric or out-of-range port and any
// IPv6 literal are typed errors, never a silent rewrite to loopback.
#include "net/socket.h"

#include <arpa/inet.h>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"

namespace vexus::net {
namespace {

TEST(ResolveHostTest, NumericAddressesNeverTouchTheResolver) {
  auto addr = ResolveHost("127.0.0.1", 7788);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr->sin_family, AF_INET);
  EXPECT_EQ(ntohs(addr->sin_port), 7788);
  EXPECT_EQ(ntohl(addr->sin_addr.s_addr), 0x7f000001u);

  auto dotted = ResolveHost("10.1.2.3", 1);
  ASSERT_TRUE(dotted.ok());
  EXPECT_EQ(ntohl(dotted->sin_addr.s_addr), 0x0a010203u);
}

TEST(ResolveHostTest, EmptyAndStarMeanAnyAddress) {
  for (const char* any : {"", "*"}) {
    auto addr = ResolveHost(any, 80);
    ASSERT_TRUE(addr.ok()) << any;
    EXPECT_EQ(ntohl(addr->sin_addr.s_addr),
              static_cast<uint32_t>(INADDR_ANY));
    EXPECT_EQ(ntohs(addr->sin_port), 80);
  }
}

TEST(ResolveHostTest, LocalhostResolvesThroughGetaddrinfo) {
  auto addr = ResolveHost("localhost", 7788);
  ASSERT_TRUE(addr.ok()) << addr.status().ToString();
  EXPECT_EQ(ntohl(addr->sin_addr.s_addr), 0x7f000001u);
}

TEST(ResolveHostTest, GarbageHostFailsWithInvalidArgument) {
  // RFC 6761 reserves .invalid — this can never resolve.
  auto addr = ResolveHost("no.such.host.invalid", 1);
  ASSERT_FALSE(addr.ok());
  EXPECT_EQ(addr.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(addr.status().ToString().find("no.such.host.invalid"),
            std::string::npos);

  // A malformed dotted quad must not be "close enough" for inet_pton.
  EXPECT_FALSE(ResolveHost("300.0.0.1.", 1).ok());
}

TEST(ParseHostPortTest, SplitsHostAndPort) {
  auto numeric = ParseHostPort("127.0.0.1:9090");
  ASSERT_TRUE(numeric.ok()) << numeric.status().ToString();
  EXPECT_EQ(numeric->host, "127.0.0.1");
  EXPECT_EQ(numeric->port, 9090);

  auto named = ParseHostPort("localhost:65535");
  ASSERT_TRUE(named.ok()) << named.status().ToString();
  EXPECT_EQ(named->host, "localhost");
  EXPECT_EQ(named->port, 65535);
}

TEST(ParseHostPortTest, RejectsEmptyHostAndMissingPort) {
  for (const char* bad : {":8080", "", "127.0.0.1", "127.0.0.1:", ":"}) {
    auto parsed = ParseHostPort(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ParseHostPortTest, RejectsGarbageAndOutOfRangePorts) {
  for (const char* bad :
       {"127.0.0.1:http", "127.0.0.1:0", "127.0.0.1:65536",
        "127.0.0.1:99999999999999999999", "127.0.0.1:-1", "127.0.0.1:80 "}) {
    auto parsed = ParseHostPort(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ParseHostPortTest, RejectsIpv6Literals) {
  // ResolveHost is AF_INET-only: a bracketed literal used to parse here and
  // then fail at connect time with "not an IPv4 address".
  for (const char* bad : {"[::1]:9090", "[::1]", "::1:9090"}) {
    auto parsed = ParseHostPort(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

/// A listener whose accept queue is intentionally full: backlog 1, never
/// accepted. Loopback connects beyond the queue get their SYN dropped, so
/// the client-side connect stays in progress — the deterministic stall the
/// timeout regressions need. The filler connections (which the kernel
/// completed into the queue) are kept open by the fixture.
struct StalledListener {
  Fd listener;
  uint16_t port = 0;
  std::vector<Fd> filler;

  bool Init() {
    auto fd = ListenTcp("127.0.0.1", 0, /*backlog=*/1, &port);
    if (!fd.ok()) return false;
    listener = std::move(fd).ValueOrDie();
    // Fill the queue: the first few connects complete instantly; stop at
    // the first one the kernel leaves pending.
    for (int i = 0; i < 8; ++i) {
      auto conn = ConnectTcp("127.0.0.1", port, 100);
      if (!conn.ok()) return true;  // queue is now provably full
      filler.push_back(std::move(conn).ValueOrDie());
    }
    return false;  // queue never filled — kernel config we can't test under
  }
};

TEST(ConnectTcpTest, NaNZeroAndNegativeBudgetsFailFastNotForever) {
  StalledListener target;
  if (!target.Init()) GTEST_SKIP() << "could not fill the accept queue";
  for (double budget : {std::numeric_limits<double>::quiet_NaN(), 0.0, -3.0}) {
    Stopwatch watch;
    auto conn = ConnectTcp("127.0.0.1", target.port, budget);
    ASSERT_FALSE(conn.ok()) << budget;
    EXPECT_EQ(conn.status().code(), StatusCode::kDeadlineExceeded) << budget;
    // Pre-fix, NaN poll'd a garbage timeout and 0/-x truncated into an
    // instant-but-unchecked lap; either way the call must return at once.
    EXPECT_LT(watch.ElapsedMillis(), 1000.0) << budget;
  }
}

TEST(ConnectTcpTest, BoundedBudgetIsHonoredAgainstAStalledTarget) {
  StalledListener target;
  if (!target.Init()) GTEST_SKIP() << "could not fill the accept queue";
  Stopwatch watch;
  auto conn = ConnectTcp("127.0.0.1", target.port, 250);
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(watch.ElapsedMillis(), 200.0);
  EXPECT_LT(watch.ElapsedMillis(), 5000.0);
}

TEST(ConnectTcpTest, QuasiInfiniteBudgetStillConnects) {
  // The other half of the cast bug: 1e12 went negative through the int
  // cast, so even a *healthy* connect could block forever if the kernel
  // delayed the handshake past the first poll. With the lap clamp the
  // budget is effectively infinite but each lap stays bounded.
  uint16_t port = 0;
  auto listener = ListenTcp("127.0.0.1", 0, 8, &port);
  ASSERT_TRUE(listener.ok());
  for (double budget : {1e12, Deadline::kInfiniteBudgetMillis,
                        std::numeric_limits<double>::infinity()}) {
    auto conn = ConnectTcp("127.0.0.1", port, budget);
    EXPECT_TRUE(conn.ok()) << budget << ": " << conn.status().ToString();
  }
}

}  // namespace
}  // namespace vexus::net
