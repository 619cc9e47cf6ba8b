// bench_snapshot_coldstart — the serving cold-start path from a snapshot.
//
// Fig. 1 splits VEXUS into an offline pipeline and interactive modules; a
// deployment mines once, snapshots, and brings serving processes up from the
// snapshot. This harness measures every leg of that story at BOOKCROSSING
// scale (278,858 users; --smoke shrinks to 8,000 for CI):
//
//   1. preprocess   serial vs parallel DiscoverGroups + InvertedIndex::Build
//                   (the fold discipline promises byte-identical output — the
//                   harness hashes both worlds and asserts it)
//   2. save         one section (S=1) vs two shard sections (S=2): bytes, ms
//   3. load         full LoadSnapshot of each file, and LoadSnapshotShard of
//                   each S=2 section (medians of N trials); every load must
//                   round-trip to the preprocessed store's digest
//   4. warm-up      VexusEngine::FromSnapshot end-to-end (load + catalog
//                   rebuild), the number an operator actually waits
//
// Gates: parallel preprocess and both round trips identical; at full scale
// the S=2 full load is at most 1.5x the S=1 full load (the section decoder
// copies raw blocks at their word offset, so splitting a group's members
// must not cost a per-member pass). Emits BENCH_snapshot_coldstart.json
// (path overridable via the first non-flag arg) so the numbers are a
// committed artifact.
//
// Run:  ./build/bench/bench_snapshot_coldstart [--smoke] [out.json]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/stopwatch.h"
#include "core/snapshot.h"
#include "server/json.h"

using namespace vexus;
using namespace vexus::bench;

namespace {

/// Order-sensitive digest of everything a snapshot persists: group
/// descriptions, member bitsets, posting lists. Two engines with equal
/// digests went through byte-identical discovery + index builds.
uint64_t StoreDigest(const mining::GroupStore& store,
                     const index::InvertedIndex& idx) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = HashCombine(h, store.size());
  for (mining::GroupId g = 0; g < store.size(); ++g) {
    const mining::UserGroup& grp = store.group(g);
    h = HashCombine(h, grp.description().size());
    for (const mining::Descriptor& d : grp.description()) {
      h = HashCombine(h, (static_cast<uint64_t>(d.attribute) << 32) | d.value);
    }
    h = HashCombine(h, grp.members().Hash());
  }
  h = HashCombine(h, idx.num_groups());
  for (mining::GroupId g = 0; g < idx.num_groups(); ++g) {
    for (const index::Neighbor& n : idx.Neighbors(g)) {
      uint32_t sim_bits;
      static_assert(sizeof(sim_bits) == sizeof(n.similarity));
      std::memcpy(&sim_bits, &n.similarity, sizeof(sim_bits));
      h = HashCombine(h, (static_cast<uint64_t>(n.group) << 32) | sim_bits);
    }
  }
  return h;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

double MedianMs(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

core::VexusEngine Build(data::Dataset dataset, size_t threads) {
  mining::DiscoveryOptions dopt;
  // The serving tier keeps the top of the group lattice resident — the
  // broad, dense groups every exploration step touches first. That profile
  // (member mass concentrated in groups above ~1/8 density, where the raw
  // bitset block is smaller than any per-member list) puts the load on the
  // raw-block path, which sharding splits into per-section word runs; the
  // long sparse tail is mined on demand, not served from the snapshot.
  dopt.min_support_fraction = 0.12;
  dopt.num_threads = threads;
  index::InvertedIndex::Options iopt;
  iopt.num_threads = threads;
  auto r = core::VexusEngine::Preprocess(std::move(dataset), dopt, iopt);
  VEXUS_CHECK(r.ok()) << r.status().ToString();
  return std::move(r).ValueOrDie();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_snapshot_coldstart.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const uint32_t users = smoke ? 8000 : 278858;  // paper's BOOKCROSSING |U|
  const int trials = smoke ? 3 : 5;

  Banner("bench_snapshot_coldstart",
         "a 2-section snapshot loads within 1.5x of a 1-section one; "
         "parallel preprocess is byte-identical to serial");
  std::printf("scale: %u users (%s)\n\n", users, smoke ? "smoke" : "full");

  // --- 1. Preprocess: serial vs parallel, identical output.
  Stopwatch sw;
  core::VexusEngine serial =
      Build(data::BookCrossingGenerator::Generate(BxConfig(users)), 1);
  double preprocess_serial_ms = sw.ElapsedMillis();

  Stopwatch sw2;
  core::VexusEngine parallel =
      Build(data::BookCrossingGenerator::Generate(BxConfig(users)), 0);
  double preprocess_parallel_ms = sw2.ElapsedMillis();

  const uint64_t digest = StoreDigest(serial.groups(), serial.index());
  bool identical = digest == StoreDigest(parallel.groups(), parallel.index());
  std::printf("preprocess: serial %.0f ms | parallel %.0f ms (%.2fx) | "
              "digests %s\n",
              preprocess_serial_ms, preprocess_parallel_ms,
              preprocess_serial_ms / std::max(1.0, preprocess_parallel_ms),
              identical ? "IDENTICAL" : "DIFFER (BUG)");
  std::printf("%s\n\n", serial.Summary().c_str());
  const uint64_t num_groups = serial.groups().size();

  // --- 2. Save: one section vs two. sync=false times the codec, not the
  // disk's fsync.
  const std::string s1_path = "bench_coldstart_s1.snapshot";
  const std::string s2_path = "bench_coldstart_s2.snapshot";
  auto save = [&](const std::string& path, size_t num_shards) {
    core::SnapshotSaveOptions opts;
    opts.sync = false;
    opts.num_shards = num_shards;
    Stopwatch t;
    Status st =
        core::SaveSnapshot(serial.groups(), serial.index(), path, opts);
    VEXUS_CHECK(st.ok()) << st.ToString();
    return t.ElapsedMillis();
  };
  const double save_s1_ms = save(s1_path, 1);
  const double save_s2_ms = save(s2_path, 2);
  const uint64_t s1_bytes = FileBytes(s1_path);
  const uint64_t s2_bytes = FileBytes(s2_path);

  // --- 3. Load: full files alternating, then each S=2 section alone.
  bool round_trip = true;
  auto load = [&](const std::string& path) {
    Stopwatch t;
    auto snap = core::LoadSnapshot(path);
    const double ms = t.ElapsedMillis();
    VEXUS_CHECK(snap.ok()) << snap.status().ToString();
    round_trip = round_trip && StoreDigest(snap->groups, snap->index) == digest;
    return ms;
  };
  std::vector<double> s1_load, s2_load, shard_load;
  for (int t = 0; t < trials; ++t) {
    s1_load.push_back(load(s1_path));
    s2_load.push_back(load(s2_path));
    for (size_t s = 0; s < 2; ++s) {
      Stopwatch ts;
      auto shard = core::LoadSnapshotShard(s2_path, s);
      shard_load.push_back(ts.ElapsedMillis());
      VEXUS_CHECK(shard.ok()) << shard.status().ToString();
      VEXUS_CHECK(shard->groups.size() == num_groups);
    }
  }
  const double load_s1_ms = MedianMs(s1_load);
  const double load_s2_ms = MedianMs(s2_load);
  const double shard_load_ms = MedianMs(shard_load);
  const double s2_over_s1 = load_s1_ms <= 0 ? 0 : load_s2_ms / load_s1_ms;

  std::printf("save: S=1 %8llu bytes (%.1f B/group, %.1f ms) | "
              "S=2 %8llu bytes (%.1f ms)\n",
              static_cast<unsigned long long>(s1_bytes),
              static_cast<double>(s1_bytes) /
                  static_cast<double>(std::max<uint64_t>(1, num_groups)),
              save_s1_ms, static_cast<unsigned long long>(s2_bytes),
              save_s2_ms);
  std::printf("load: S=1 %.3f ms | S=2 %.3f ms (%.2fx) | S=2 one section "
              "%.3f ms (median of %d) | round trips %s\n\n",
              load_s1_ms, load_s2_ms, s2_over_s1, shard_load_ms, trials,
              round_trip ? "IDENTICAL" : "DIFFER (BUG)");

  // --- 4. End-to-end warm-up: dataset + snapshot -> serving engine.
  data::Dataset fresh = data::BookCrossingGenerator::Generate(BxConfig(users));
  sw = Stopwatch();
  auto warmed = core::VexusEngine::FromSnapshot(std::move(fresh), s1_path);
  double warm_ms = sw.ElapsedMillis();
  VEXUS_CHECK(warmed.ok()) << warmed.status().ToString();
  VEXUS_CHECK(warmed->groups().size() == num_groups);
  std::printf("FromSnapshot warm-up (load + catalog): %.0f ms vs "
              "%.0f ms full preprocess (%.1fx faster cold start)\n\n",
              warm_ms, preprocess_serial_ms,
              preprocess_serial_ms / std::max(1.0, warm_ms));

  constexpr double kMaxS2OverS1 = 1.5;
  const bool pass_split = s2_over_s1 <= kMaxS2OverS1;
  std::printf("acceptance: S=2 load <=%.1fx S=1 %s | round trips %s | "
              "parallel identical %s\n",
              kMaxS2OverS1, pass_split ? "PASS" : "FAIL",
              round_trip ? "PASS" : "FAIL", identical ? "PASS" : "FAIL");

  server::json::Object out;
  out.emplace_back("bench",
                   server::json::Value(std::string("snapshot_coldstart")));
  out.emplace_back("smoke", server::json::Value(smoke));
  out.emplace_back("num_users", server::json::Value(uint64_t{users}));
  out.emplace_back("num_groups", server::json::Value(num_groups));
  out.emplace_back("preprocess_serial_ms",
                   server::json::Value(preprocess_serial_ms));
  out.emplace_back("preprocess_parallel_ms",
                   server::json::Value(preprocess_parallel_ms));
  out.emplace_back("parallel_identical", server::json::Value(identical));
  out.emplace_back("s1_bytes", server::json::Value(s1_bytes));
  out.emplace_back("s2_bytes", server::json::Value(s2_bytes));
  out.emplace_back("s1_bytes_per_group",
                   server::json::Value(
                       static_cast<double>(s1_bytes) /
                       static_cast<double>(std::max<uint64_t>(1, num_groups))));
  out.emplace_back("save_s1_ms", server::json::Value(save_s1_ms));
  out.emplace_back("save_s2_ms", server::json::Value(save_s2_ms));
  out.emplace_back("load_s1_ms_median", server::json::Value(load_s1_ms));
  out.emplace_back("load_s2_ms_median", server::json::Value(load_s2_ms));
  out.emplace_back("load_s2_over_s1", server::json::Value(s2_over_s1));
  out.emplace_back("load_s2_shard_ms_median",
                   server::json::Value(shard_load_ms));
  out.emplace_back("round_trip_identical", server::json::Value(round_trip));
  out.emplace_back("from_snapshot_warm_ms", server::json::Value(warm_ms));
  out.emplace_back("accept_load_s2_over_s1_max",
                   server::json::Value(kMaxS2OverS1));
  out.emplace_back("pass", server::json::Value(pass_split && round_trip &&
                                               identical));
  std::string json = server::json::Value(std::move(out)).Dump();
  std::printf("JSON %s\n", json.c_str());

  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::printf("WARN: could not open %s for writing\n", out_path);
  }
  std::remove(s1_path.c_str());
  std::remove(s2_path.c_str());

  // Smoke mode is a CI health check: sub-50us loads make the load ratio
  // timing noise, so only the scale-independent claims gate — parallel
  // preprocess and both snapshot round trips must be byte-identical. The
  // load-ratio gate is judged on the committed full-scale artifact.
  const bool structural = round_trip && identical;
  return smoke ? (structural ? 0 : 1) : (structural && pass_split ? 0 : 1);
}
