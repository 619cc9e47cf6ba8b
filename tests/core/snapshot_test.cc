#include "core/snapshot.h"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <utility>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "common/shard_map.h"
#include "core/partial_eval.h"
#include "core/session.h"
#include "data/generators/bookcrossing_gen.h"
#include "mining/discovery.h"

namespace vexus::core {
namespace {

struct SnapshotWorld {
  SnapshotWorld() {
    data::BookCrossingGenerator::Config cfg;
    cfg.num_users = 300;
    cfg.num_books = 300;
    cfg.num_ratings = 1800;
    dataset = data::BookCrossingGenerator::Generate(cfg);
    mining::DiscoveryOptions dopt;
    dopt.min_support_fraction = 0.05;
    auto d = mining::DiscoverGroups(dataset, dopt);
    EXPECT_TRUE(d.ok());
    discovery = std::make_unique<mining::DiscoveryResult>(
        std::move(d).ValueOrDie());
    index::InvertedIndex::Options iopt;
    iopt.materialization_fraction = 0.25;
    auto idx = index::InvertedIndex::Build(discovery->groups, iopt);
    EXPECT_TRUE(idx.ok());
    index = std::make_unique<index::InvertedIndex>(std::move(idx).ValueOrDie());
  }

  std::string TempPath(const char* name) const {
    return ::testing::TempDir() + "/vexus_snapshot_" + name + ".bin";
  }

  data::Dataset dataset;
  std::unique_ptr<mining::DiscoveryResult> discovery;
  std::unique_ptr<index::InvertedIndex> index;
};

TEST(SnapshotTest, RoundTripPreservesEverything) {
  SnapshotWorld w;
  std::string path = w.TempPath("roundtrip");
  ASSERT_TRUE(SaveSnapshot(w.discovery->groups, *w.index, path).ok());

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const mining::GroupStore& a = w.discovery->groups;
  const mining::GroupStore& b = loaded->groups;
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_users(), b.num_users());
  for (mining::GroupId g = 0; g < a.size(); ++g) {
    EXPECT_TRUE(a.group(g).description() == b.group(g).description());
    EXPECT_TRUE(a.group(g).members() == b.group(g).members());
  }
  ASSERT_EQ(w.index->num_groups(), loaded->index.num_groups());
  for (mining::GroupId g = 0; g < a.size(); ++g) {
    const auto& la = w.index->Neighbors(g);
    const auto& lb = loaded->index.Neighbors(g);
    ASSERT_EQ(la.size(), lb.size());
    for (size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].group, lb[i].group);
      EXPECT_FLOAT_EQ(la[i].similarity, lb[i].similarity);
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadedSnapshotServesSessions) {
  SnapshotWorld w;
  std::string path = w.TempPath("sessions");
  ASSERT_TRUE(SaveSnapshot(w.discovery->groups, *w.index, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());

  TokenSpace tokens(w.dataset);
  FirstScreenMemo first_screens;
  ExplorationSession session(&w.dataset, &loaded->groups, &loaded->index,
                             &tokens, &first_screens, {});
  const auto& shown = session.Start();
  EXPECT_FALSE(shown.groups.empty());
  session.SelectGroup(shown.groups.front());
  EXPECT_EQ(session.NumSteps(), 2u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsIOError) {
  auto r = LoadSnapshot("/nonexistent_dir_zzz/x.bin");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(SnapshotTest, BadMagicIsCorruption) {
  SnapshotWorld w;
  std::string path = w.TempPath("badmagic");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPEnot a snapshot at all";
  }
  auto r = LoadSnapshot(path);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncationIsCorruption) {
  SnapshotWorld w;
  std::string path = w.TempPath("trunc");
  ASSERT_TRUE(SaveSnapshot(w.discovery->groups, *w.index, path).ok());
  // Chop the file at several prefixes; every cut must fail cleanly.
  std::ifstream in(path, std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  for (size_t cut : {size_t{2}, size_t{6}, size_t{20}, full.size() / 2,
                     full.size() - 3}) {
    std::string cut_path = w.TempPath("cut");
    {
      std::ofstream out(cut_path, std::ios::binary);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    auto r = LoadSnapshot(cut_path);
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_TRUE(r.status().IsCorruption()) << "cut at " << cut;
    std::remove(cut_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, FutureVersionIsNotSupported) {
  SnapshotWorld w;
  std::string path = w.TempPath("version");
  ASSERT_TRUE(SaveSnapshot(w.discovery->groups, *w.index, path).ok());
  // Bump the version field (bytes 4..7).
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(4);
  char v99[4] = {99, 0, 0, 0};
  f.write(v99, 4);
  f.close();
  auto r = LoadSnapshot(path);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotSupported());
  std::remove(path.c_str());
}

TEST(SnapshotTest, MismatchedInputsRejected) {
  SnapshotWorld w;
  mining::GroupStore other(w.discovery->groups.num_users());
  Status s = SaveSnapshot(other, *w.index, w.TempPath("mismatch"));
  EXPECT_TRUE(s.IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Encoding edge cases and round trips across section counts
// ---------------------------------------------------------------------------

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/vexus_snapshot_" + name + ".bin";
}

void ExpectStoresEqual(const mining::GroupStore& a,
                       const mining::GroupStore& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_users(), b.num_users());
  for (mining::GroupId g = 0; g < a.size(); ++g) {
    EXPECT_TRUE(a.group(g).description() == b.group(g).description())
        << "group " << g;
    EXPECT_TRUE(a.group(g).members() == b.group(g).members()) << "group " << g;
  }
}

/// A store exercising every member-block shape: the all-users root (raw
/// encoding), a dense group, a sparse group, a singleton, and an empty
/// extent. Index postings reference each group so the postings section is
/// non-trivial too.
std::pair<mining::GroupStore, index::InvertedIndex> MixedWorld(
    size_t num_users) {
  mining::GroupStore store(num_users);
  Bitset all(num_users);
  for (size_t u = 0; u < num_users; ++u) all.Set(u);
  store.Add(mining::UserGroup({}, all));  // root — raw block

  Bitset dense(num_users);
  for (size_t u = 0; u < num_users; u += 2) dense.Set(u);
  store.Add(mining::UserGroup({{0, 1}}, dense));

  Bitset sparse(num_users);
  for (size_t u = 0; u < num_users; u += 97) sparse.Set(u);
  store.Add(mining::UserGroup({{1, 2}}, sparse));

  Bitset one(num_users);
  one.Set(num_users - 1);
  store.Add(mining::UserGroup({{2, 0}}, one));

  store.Add(mining::UserGroup({{3, 4}}, Bitset(num_users)));  // empty extent

  std::vector<std::vector<index::Neighbor>> lists(store.size());
  lists[0] = {{1, 0.5f}, {2, 0.25f}};
  lists[1] = {{0, 0.5f}};
  lists[4] = {{3, 0.125f}};
  return {std::move(store), index::InvertedIndex::FromPostings(lists)};
}

uint64_t ReadU64At(const std::string& b, size_t off) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(b[off + i]))
         << (8 * i);
  }
  return v;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

struct ShardSpan {
  size_t offset = 0;
  size_t len = 0;
};

/// Group-section spans straight from a file's variable trailer (layout in
/// core/snapshot.h): the fixed 16-byte tail carries the shard count, each
/// 36-byte entry leads with offset | len.
std::vector<ShardSpan> ShardSpansOf(const std::string& file) {
  const size_t num_shards = ReadU64At(file, file.size() - 16);
  const size_t trailer_size = num_shards * 36 + 36;
  const size_t base = file.size() - trailer_size;
  std::vector<ShardSpan> spans(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    spans[s].offset = ReadU64At(file, base + s * 36);
    spans[s].len = ReadU64At(file, base + s * 36 + 8);
  }
  return spans;
}

/// A full-store group's members inside [begin, end), as the shard-local ids
/// a shard store holds (global id − begin).
std::vector<uint32_t> MembersInRange(const mining::UserGroup& g,
                                     uint32_t begin, uint32_t end) {
  std::vector<uint32_t> ids;
  g.members().ForEach([&](uint32_t u) {
    if (u >= begin && u < end) ids.push_back(u - begin);
  });
  return ids;
}

std::string WriteBytes(const std::string& bytes, const char* name) {
  std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

Result<Snapshot> LoadBytes(const std::string& bytes, const char* name) {
  std::string path = WriteBytes(bytes, name);
  auto r = LoadSnapshot(path);
  std::remove(path.c_str());
  return r;
}

TEST(SnapshotFormatTest, SparseGroupEncodedRawRoundTrips) {
  // 56 members of 448 users, but the first id (252) needs a two-byte
  // varint: 57 sparse bytes lose to the 56-byte raw block, so a group this
  // sparse still takes the raw encoding.
  const size_t num_users = 448;
  Bitset members(num_users);
  for (uint32_t u = 252; u < 308; ++u) members.Set(u);
  mining::GroupStore store(num_users);
  store.Add(mining::UserGroup({{0, 0}}, members));
  index::InvertedIndex index = index::InvertedIndex::FromPostings(
      std::vector<std::vector<index::Neighbor>>(1));

  std::string path = TempPath("sparse_raw");
  SnapshotSaveOptions opts;
  opts.sync = false;
  ASSERT_TRUE(SaveSnapshot(store, index, path, opts).ok());
  auto loaded = LoadSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStoresEqual(store, loaded->groups);
}

TEST(SnapshotFormatTest, PropertyRandomStoresRoundTripBothVersions) {
  Rng rng(20260806);
  for (int trial = 0; trial < 12; ++trial) {
    const size_t num_users = 1 + rng.UniformU32(700);
    mining::GroupStore store(num_users);
    const size_t num_groups = 1 + rng.UniformU32(12);
    for (size_t g = 0; g < num_groups; ++g) {
      Bitset members(num_users);
      switch (rng.UniformU32(4)) {
        case 0:  // empty extent
          break;
        case 1:  // singleton
          members.Set(rng.UniformU32(static_cast<uint32_t>(num_users)));
          break;
        case 2:  // full universe
          for (size_t u = 0; u < num_users; ++u) members.Set(u);
          break;
        default: {  // random density
          double p = rng.UniformDouble();
          for (size_t u = 0; u < num_users; ++u) {
            if (rng.UniformDouble() < p) members.Set(u);
          }
        }
      }
      std::vector<mining::Descriptor> desc;
      const size_t desc_len = rng.UniformU32(4);
      for (size_t d = 0; d < desc_len; ++d) {
        desc.push_back({rng.UniformU32(8), rng.UniformU32(16)});
      }
      store.Add(mining::UserGroup(std::move(desc), std::move(members)));
    }
    std::vector<std::vector<index::Neighbor>> lists(store.size());
    for (size_t g = 0; g < store.size(); ++g) {
      const size_t len = rng.UniformU32(4);
      for (size_t i = 0; i < len; ++i) {
        lists[g].push_back({rng.UniformU32(static_cast<uint32_t>(store.size())),
                            static_cast<float>(rng.UniformDouble())});
      }
    }
    index::InvertedIndex index = index::InvertedIndex::FromPostings(lists);

    for (size_t num_shards : {1u, 2u, 3u, 4u}) {
      std::string path = TempPath("property");
      SnapshotSaveOptions opts;
      opts.sync = false;
      opts.num_shards = num_shards;
      ASSERT_TRUE(SaveSnapshot(store, index, path, opts).ok());
      auto loaded = LoadSnapshot(path);
      ASSERT_TRUE(loaded.ok())
          << "trial " << trial << " S=" << num_shards << ": "
          << loaded.status().ToString();
      ExpectStoresEqual(store, loaded->groups);
      ASSERT_EQ(loaded->index.num_groups(), store.size());
      for (size_t g = 0; g < store.size(); ++g) {
        const auto& got = loaded->index.Neighbors(g);
        ASSERT_EQ(got.size(), lists[g].size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].group, lists[g][i].group);
          EXPECT_FLOAT_EQ(got[i].similarity, lists[g][i].similarity);
        }
      }
      std::remove(path.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Hand-crafted malformed files (format-level regression tests)
// ---------------------------------------------------------------------------

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Assembles a well-formed container (header, one group section per range
/// of ShardMap(num_users, S), postings, CRC trailer) around arbitrary
/// section payloads, so tests can express "the checksums are right but the
/// content is evil".
std::string MakeV3File(uint64_t num_users,
                       const std::vector<std::string>& group_secs,
                       const std::string& postings_sec) {
  const ShardMap shards(num_users, group_secs.size());
  EXPECT_EQ(shards.num_shards(), group_secs.size());
  std::string buf;
  buf.append("VXSN", 4);
  AppendU32(&buf, 3);
  AppendU64(&buf, num_users);
  std::string trailer;
  for (size_t s = 0; s < group_secs.size(); ++s) {
    AppendU64(&trailer, buf.size());
    AppendU64(&trailer, group_secs[s].size());
    AppendU64(&trailer, shards.shard(s).user_begin);
    AppendU64(&trailer, shards.shard(s).user_end);
    buf.append(group_secs[s]);
    // Section 0's CRC covers the header too.
    AppendU32(&trailer,
              s == 0 ? Crc32(buf.data(), buf.size())
                     : Crc32(group_secs[s].data(), group_secs[s].size()));
  }
  AppendU64(&trailer, buf.size());
  AppendU64(&trailer, postings_sec.size());
  AppendU32(&trailer, Crc32(postings_sec.data(), postings_sec.size()));
  buf.append(postings_sec);
  AppendU64(&trailer, group_secs.size());
  AppendU32(&trailer, Crc32(trailer.data(), trailer.size()));
  trailer.append("VXTR", 4);
  buf.append(trailer);
  return buf;
}

std::string EmptyPostings(uint64_t num_groups) {
  std::string sec;
  AppendU64(&sec, num_groups);
  for (uint64_t g = 0; g < num_groups; ++g) AppendU32(&sec, 0);
  return sec;
}

TEST(SnapshotFormatTest, DuplicateMemberDeltaIsCorruption) {
  // Sparse deltas {2, 0, 1}: the zero delta repeats member 2. Pre-fix the
  // loader Set() the same bit twice and the group silently shrank.
  std::string groups;
  AppendU64(&groups, 1);   // num_groups
  AppendU32(&groups, 0);   // desc_len
  AppendU64(&groups, 3);   // member_count
  AppendU8(&groups, 0);    // sparse
  AppendVarint(&groups, 2);
  AppendVarint(&groups, 0);
  AppendVarint(&groups, 1);
  auto r = LoadBytes(MakeV3File(10, {groups}, EmptyPostings(1)), "dupdelta");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
  EXPECT_NE(r.status().ToString().find("duplicate member"), std::string::npos)
      << r.status().ToString();
}

TEST(SnapshotFormatTest, WrappingSparseDeltaIsCorruption) {
  // A delta of 2^64 - 3 wraps the running 64-bit id back into range (5 → 2
  // at S=1, 70 → 67 inside shard 1's [64, 128) at S=2). Pre-fix the range
  // test ran after the add, so the loader accepted out-of-order ids.
  const uint64_t wrap = ~uint64_t{0} - 2;
  auto one_group = [](uint64_t member_count, std::vector<uint64_t> deltas) {
    std::string sec;
    AppendU64(&sec, 1);             // num_groups
    AppendU32(&sec, 0);             // desc_len
    AppendU64(&sec, member_count);  // member_count
    AppendU8(&sec, 0);              // sparse
    for (uint64_t d : deltas) AppendVarint(&sec, d);
    return sec;
  };

  auto full = LoadBytes(MakeV3File(10, {one_group(2, {5, wrap})},
                                   EmptyPostings(1)),
                        "wrapdelta");
  ASSERT_FALSE(full.ok());
  EXPECT_TRUE(full.status().IsCorruption()) << full.status().ToString();

  std::string path = WriteBytes(
      MakeV3File(128, {one_group(0, {}), one_group(2, {70, wrap})},
                 EmptyPostings(1)),
      "wrapdelta_shard");
  EXPECT_TRUE(LoadSnapshotShard(path, 0).ok());
  auto shard = LoadSnapshotShard(path, 1);
  ASSERT_FALSE(shard.ok());
  EXPECT_TRUE(shard.status().IsCorruption()) << shard.status().ToString();
  EXPECT_TRUE(LoadSnapshot(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(SnapshotFormatTest, SparseMemberOutOfRangeIsCorruption) {
  std::string groups;
  AppendU64(&groups, 1);
  AppendU32(&groups, 0);
  AppendU64(&groups, 1);
  AppendU8(&groups, 0);
  AppendVarint(&groups, 99);  // num_users is 10
  auto r = LoadBytes(MakeV3File(10, {groups}, EmptyPostings(1)), "idrange");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(SnapshotFormatTest, RawBlockBitBeyondUniverseIsCorruption) {
  std::string groups;
  AppendU64(&groups, 1);
  AppendU32(&groups, 0);
  AppendU64(&groups, 1);
  AppendU8(&groups, 1);                  // raw
  AppendU64(&groups, uint64_t{1} << 63);  // bit 63 set; universe is 10 bits
  auto r = LoadBytes(MakeV3File(10, {groups}, EmptyPostings(1)), "rawtail");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(SnapshotFormatTest, RawBlockPopcountMismatchIsCorruption) {
  std::string groups;
  AppendU64(&groups, 1);
  AppendU32(&groups, 0);
  AppendU64(&groups, 1);  // claims one member…
  AppendU8(&groups, 1);
  AppendU64(&groups, 0b11);  // …but the block stores two
  auto r = LoadBytes(MakeV3File(10, {groups}, EmptyPostings(1)), "popcount");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(SnapshotFormatTest, UnknownEncodingIsCorruption) {
  std::string groups;
  AppendU64(&groups, 1);
  AppendU32(&groups, 0);
  AppendU64(&groups, 0);
  AppendU8(&groups, 7);  // neither sparse (0) nor raw (1)
  auto r = LoadBytes(MakeV3File(10, {groups}, EmptyPostings(1)), "encoding");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(SnapshotFormatTest, RetiredVersionsAreNotSupported) {
  // Version words 1 and 2 name formats that are no longer read; both
  // loaders answer NotSupported, as for any unknown version.
  auto [store, index] = MixedWorld(300);
  std::string path = TempPath("retired");
  SnapshotSaveOptions opts;
  opts.sync = false;
  ASSERT_TRUE(SaveSnapshot(store, index, path, opts).ok());
  const std::string good = ReadWholeFile(path);
  std::remove(path.c_str());
  for (char version : {1, 2}) {
    std::string mutated = good;
    mutated[4] = version;
    std::string vpath = WriteBytes(mutated, "retired_version");
    auto full = LoadSnapshot(vpath);
    EXPECT_TRUE(full.status().IsNotSupported())
        << "version " << int{version} << ": " << full.status().ToString();
    auto shard = LoadSnapshotShard(vpath, 0);
    EXPECT_TRUE(shard.status().IsNotSupported())
        << "version " << int{version} << ": " << shard.status().ToString();
    std::remove(vpath.c_str());
  }
}

TEST(SnapshotFormatTest, TrailingGarbageIsCorruptionBothVersions) {
  auto [store, index] = MixedWorld(200);
  for (size_t num_shards : {1u, 2u, 3u, 4u}) {
    std::string path = TempPath("garbage");
    SnapshotSaveOptions opts;
    opts.sync = false;
    opts.num_shards = num_shards;
    ASSERT_TRUE(SaveSnapshot(store, index, path, opts).ok());
    {
      std::ofstream out(path, std::ios::binary | std::ios::app);
      out << "extra";
    }
    auto r = LoadSnapshot(path);
    ASSERT_FALSE(r.ok()) << "S=" << num_shards;
    EXPECT_TRUE(r.status().IsCorruption()) << "S=" << num_shards;
    auto shard = LoadSnapshotShard(path, 0);
    ASSERT_FALSE(shard.ok()) << "S=" << num_shards;
    EXPECT_TRUE(shard.status().IsCorruption()) << "S=" << num_shards;
    std::remove(path.c_str());
  }
}

/// Write a small snapshot with `num_shards` sections, then flip one bit in
/// every byte of the file. No flip may crash the loader or produce
/// Status::OK — each must surface as Corruption, or NotSupported when the
/// flip lands in the version word. Every bit of the header and the trailer,
/// whose fields gate parsing, is flipped too, and must also stop every
/// single-shard load.
void ExpectEveryFlippedBitRejected(size_t num_shards) {
  auto [store, index] = MixedWorld(300);
  std::string path = TempPath("matrix");
  SnapshotSaveOptions opts;
  opts.sync = false;
  opts.num_shards = num_shards;
  ASSERT_TRUE(SaveSnapshot(store, index, path, opts).ok());
  const std::string full = ReadWholeFile(path);
  std::remove(path.c_str());
  ASSERT_EQ(ShardSpansOf(full).size(), num_shards);
  const size_t trailer_size = 36 * num_shards + 36;  // 72 at S=1

  auto rejected = [](const Status& st) {
    return st.IsCorruption() || st.IsNotSupported();
  };
  auto check = [&](size_t byte, int bit, bool every_shard) {
    std::string mutated = full;
    mutated[byte] ^= static_cast<char>(1 << bit);
    std::string mpath = WriteBytes(mutated, "matrixbit");
    Status st = LoadSnapshot(mpath).status();
    EXPECT_TRUE(rejected(st)) << "S=" << num_shards << " byte " << byte
                              << " bit " << bit << ": " << st.ToString();
    for (size_t s = 0; every_shard && s < num_shards; ++s) {
      Status shard_st = LoadSnapshotShard(mpath, s).status();
      EXPECT_TRUE(rejected(shard_st))
          << "S=" << num_shards << " shard " << s << " byte " << byte
          << " bit " << bit << ": " << shard_st.ToString();
    }
    std::remove(mpath.c_str());
  };
  for (size_t byte = 0; byte < full.size(); ++byte) {
    check(byte, static_cast<int>(byte % 8), /*every_shard=*/false);
  }
  for (size_t byte = 0; byte < 16; ++byte) {
    for (int bit = 0; bit < 8; ++bit) check(byte, bit, true);
  }
  for (size_t byte = full.size() - trailer_size; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) check(byte, bit, true);
  }
}

TEST(SnapshotFormatTest, CorruptionMatrixEveryFlippedBitIsRejected) {
  ExpectEveryFlippedBitRejected(1);
}

// ---------------------------------------------------------------------------
// Per-shard group sections
// ---------------------------------------------------------------------------

TEST(SnapshotShardedTest, ShardedSaveRoundTripsIdenticallyToUnsharded) {
  auto [store, index] = MixedWorld(1000);
  std::string p1 = TempPath("sharded_s1");
  std::string p4 = TempPath("sharded_s4");
  SnapshotSaveOptions base;
  base.sync = false;
  ASSERT_TRUE(SaveSnapshot(store, index, p1, base).ok());
  SnapshotSaveOptions sharded = base;
  sharded.num_shards = 4;
  ASSERT_TRUE(SaveSnapshot(store, index, p4, sharded).ok());

  std::string file = ReadWholeFile(p4);
  ASSERT_GE(file.size(), 16u);
  EXPECT_EQ(static_cast<unsigned char>(file[4]), 3);
  EXPECT_EQ(ShardSpansOf(file).size(), 4u);

  auto l1 = LoadSnapshot(p1);
  auto l4 = LoadSnapshot(p4);
  ASSERT_TRUE(l1.ok()) << l1.status().ToString();
  ASSERT_TRUE(l4.ok()) << l4.status().ToString();
  ExpectStoresEqual(store, l4->groups);
  ExpectStoresEqual(l1->groups, l4->groups);
  ASSERT_EQ(l1->index.num_groups(), l4->index.num_groups());
  for (mining::GroupId g = 0; g < store.size(); ++g) {
    const auto& la = l1->index.Neighbors(g);
    const auto& lb = l4->index.Neighbors(g);
    ASSERT_EQ(la.size(), lb.size());
    for (size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].group, lb[i].group);
      EXPECT_EQ(la[i].similarity, lb[i].similarity);
    }
  }
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

TEST(SnapshotShardedTest, SingleShardOptionStaysByteIdenticalV2) {
  // S = 1 is a one-section file: the default options and an explicit
  // num_shards = 1 write the same bytes, version word 3.
  auto [store, index] = MixedWorld(500);
  std::string pa = TempPath("oneshard_a");
  std::string pb = TempPath("oneshard_b");
  std::string pc = TempPath("oneshard_c");
  SnapshotSaveOptions plain;
  plain.sync = false;
  ASSERT_TRUE(SaveSnapshot(store, index, pa, plain).ok());
  SnapshotSaveOptions one = plain;
  one.num_shards = 1;
  ASSERT_TRUE(SaveSnapshot(store, index, pb, one).ok());
  const std::string a = ReadWholeFile(pa);
  EXPECT_EQ(a, ReadWholeFile(pb));
  EXPECT_EQ(static_cast<unsigned char>(a[4]), 3);
  EXPECT_EQ(ShardSpansOf(a).size(), 1u);

  // A universe too small to split clamps back to one shard: 60 users is one
  // bitset word, so even num_shards = 8 writes one section.
  auto [tiny_store, tiny_index] = MixedWorld(60);
  SnapshotSaveOptions eight = plain;
  eight.num_shards = 8;
  ASSERT_TRUE(SaveSnapshot(tiny_store, tiny_index, pc, eight).ok());
  std::string tiny = ReadWholeFile(pc);
  EXPECT_EQ(static_cast<unsigned char>(tiny[4]), 3);
  EXPECT_EQ(ShardSpansOf(tiny).size(), 1u);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
  std::remove(pc.c_str());
}

TEST(SnapshotShardedTest, ShardLoadRestrictsMembersToOwnedRange) {
  // A shard store spans only its own users: its universe is the range, each
  // member sits at its global id minus user_begin, and the shards' words
  // partition the full store's words.
  auto [store, index] = MixedWorld(1000);
  for (size_t num_shards : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << num_shards);
    std::string path = TempPath("shardload");
    SnapshotSaveOptions opts;
    opts.sync = false;
    opts.num_shards = num_shards;
    ASSERT_TRUE(SaveSnapshot(store, index, path, opts).ok());

    size_t total_members = 0;
    size_t total_bytes = 0;
    uint32_t prev_end = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      auto shard = LoadSnapshotShard(path, s);
      ASSERT_TRUE(shard.ok()) << "shard " << s << ": "
                              << shard.status().ToString();
      EXPECT_EQ(shard->shard, s);
      EXPECT_EQ(shard->num_shards, num_shards);
      EXPECT_EQ(shard->user_begin, prev_end);  // ranges tile the universe
      prev_end = shard->user_end;
      EXPECT_EQ(shard->user_begin % 64, 0u);   // word-aligned boundaries
      ASSERT_EQ(shard->groups.size(), store.size());
      ASSERT_EQ(shard->groups.num_users(),
                shard->user_end - shard->user_begin);
      for (mining::GroupId g = 0; g < store.size(); ++g) {
        EXPECT_TRUE(shard->groups.group(g).description() ==
                    store.group(g).description());
        std::vector<uint32_t> expect = MembersInRange(
            store.group(g), shard->user_begin, shard->user_end);
        std::vector<uint32_t> got;
        shard->groups.group(g).members().ForEach(
            [&](uint32_t u) { got.push_back(u); });
        EXPECT_EQ(got, expect) << "shard " << s << " group " << g;
        EXPECT_EQ(shard->groups.group(g).size(), got.size());
        total_members += got.size();
      }
      total_bytes += shard->groups.MemoryBytes();
    }
    EXPECT_EQ(prev_end, store.num_users());
    size_t expect_members = 0;
    for (mining::GroupId g = 0; g < store.size(); ++g) {
      expect_members += store.group(g).size();
    }
    EXPECT_EQ(total_members, expect_members);  // shards partition every group
    EXPECT_EQ(total_bytes, store.MemoryBytes());

    EXPECT_TRUE(
        LoadSnapshotShard(path, num_shards).status().IsInvalidArgument());
    std::remove(path.c_str());
  }
}

TEST(SnapshotShardedTest, SameDescriptionGroupsWithEqualSliceLoad) {
  // Two groups share a description (BIRCH labels can) and coincide inside
  // shard 0 but differ inside shard 1. Each shard keeps both at their ids,
  // and the shards' partials still sum to the full store's.
  const size_t num_users = 256;  // S = 2: [0, 128) and [128, 256)
  mining::GroupStore store(num_users);
  store.Add(mining::UserGroup({{0, 0}},
                              Bitset::FromVector(num_users, {1, 2, 3, 130})));
  store.Add(mining::UserGroup({{0, 0}},
                              Bitset::FromVector(num_users, {1, 2, 3, 200})));
  store.Add(mining::UserGroup(
      {{1, 0}}, Bitset::FromVector(num_users, {3, 4, 130, 131, 250})));
  ASSERT_EQ(store.size(), 3u);
  std::vector<std::vector<index::Neighbor>> lists(store.size());
  const index::InvertedIndex index =
      index::InvertedIndex::FromPostings(std::move(lists));
  std::string path = TempPath("shard_samedesc");
  SnapshotSaveOptions opts;
  opts.sync = false;
  opts.num_shards = 2;
  ASSERT_TRUE(SaveSnapshot(store, index, path, opts).ok());

  for (bool anchored : {false, true}) {
    SCOPED_TRACE(testing::Message() << "anchored=" << anchored);
    PartialEvalInput in;
    if (anchored) in.anchor = 2;
    in.selection = {2, 0};
    in.trials = {1, 0, 1, 1};
    auto full = EvalCoveragePartials(store, in);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    std::vector<uint32_t> sum(full->size(), 0);
    for (size_t s = 0; s < 2; ++s) {
      auto shard = LoadSnapshotShard(path, s);
      ASSERT_TRUE(shard.ok()) << "shard " << s << ": "
                              << shard.status().ToString();
      ASSERT_EQ(shard->groups.size(), store.size());
      auto part = EvalCoveragePartials(shard->groups, in);
      ASSERT_TRUE(part.ok()) << part.status().ToString();
      for (size_t t = 0; t < part->size(); ++t) sum[t] += (*part)[t];
    }
    EXPECT_EQ(sum, *full);
  }
  std::remove(path.c_str());
}

TEST(SnapshotShardedTest, ShardLoaderAcceptsV2AsSingleShard) {
  // A one-section snapshot is shard 0 of 1: the whole store.
  auto [store, index] = MixedWorld(400);
  std::string path = TempPath("shard_single");
  SnapshotSaveOptions opts;
  opts.sync = false;
  ASSERT_TRUE(SaveSnapshot(store, index, path, opts).ok());
  auto shard = LoadSnapshotShard(path, 0);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  EXPECT_EQ(shard->num_shards, 1u);
  EXPECT_EQ(shard->user_begin, 0u);
  EXPECT_EQ(shard->user_end, 400u);
  ExpectStoresEqual(store, shard->groups);
  EXPECT_TRUE(LoadSnapshotShard(path, 1).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(SnapshotShardedTest, ShardLoadDetectsReadPathCorruption) {
  // The shard loader reads through the same path as LoadSnapshot, so the
  // read-path bit-rot failpoint (a flip at the buffer's midpoint) reaches
  // it too, and the section CRC rejects the flipped byte.
  auto [store, index] = MixedWorld(1000);
  std::string path = TempPath("shard_rot");
  SnapshotSaveOptions opts;
  opts.sync = false;
  ASSERT_TRUE(SaveSnapshot(store, index, path, opts).ok());
  const std::string file = ReadWholeFile(path);
  const ShardSpan section = ShardSpansOf(file).at(0);
  ASSERT_GT(file.size() / 2, section.offset);
  ASSERT_LT(file.size() / 2, section.offset + section.len);

  failpoint::Policy once;
  once.mode = failpoint::Policy::Mode::kOnce;
  once.code = StatusCode::kOk;
  {
    failpoint::ScopedFailpoint fp("snapshot.load.corrupt", once);
    auto shard = LoadSnapshotShard(path, 0);
    EXPECT_EQ(fp.fires(), 1u);
    ASSERT_FALSE(shard.ok());
    EXPECT_TRUE(shard.status().IsCorruption()) << shard.status().ToString();
  }
  EXPECT_TRUE(LoadSnapshotShard(path, 0).ok());
  std::remove(path.c_str());
}

TEST(SnapshotShardedTest, FlippedShardSectionLeavesOtherShardsLoadable) {
  // The independence contract: one shard's media corruption is that shard's
  // problem. The full-file load must reject the snapshot, but every OTHER
  // shard must still cold-start from its own section.
  auto [store, index] = MixedWorld(1000);
  std::string path = TempPath("shardflip");
  SnapshotSaveOptions opts;
  opts.sync = false;
  opts.num_shards = 4;
  ASSERT_TRUE(SaveSnapshot(store, index, path, opts).ok());
  const std::string good = ReadWholeFile(path);
  std::remove(path.c_str());
  const std::vector<ShardSpan> spans = ShardSpansOf(good);
  ASSERT_EQ(spans.size(), 4u);

  for (size_t victim = 0; victim < spans.size(); ++victim) {
    std::string mutated = good;
    mutated[spans[victim].offset + spans[victim].len / 2] ^= 0x40;
    std::string mpath = WriteBytes(mutated, "shardflip_mut");
    auto full = LoadSnapshot(mpath);
    ASSERT_FALSE(full.ok()) << "victim " << victim;
    EXPECT_TRUE(full.status().IsCorruption()) << full.status().ToString();
    for (size_t s = 0; s < spans.size(); ++s) {
      auto shard = LoadSnapshotShard(mpath, s);
      if (s == victim) {
        ASSERT_FALSE(shard.ok()) << "victim " << victim;
        EXPECT_TRUE(shard.status().IsCorruption())
            << shard.status().ToString();
      } else {
        ASSERT_TRUE(shard.ok())
            << "victim " << victim << " blocked shard " << s << ": "
            << shard.status().ToString();
        for (mining::GroupId g = 0; g < store.size(); ++g) {
          std::vector<uint32_t> expect = MembersInRange(
              store.group(g), shard->user_begin, shard->user_end);
          std::vector<uint32_t> got;
          shard->groups.group(g).members().ForEach(
              [&](uint32_t u) { got.push_back(u); });
          EXPECT_EQ(got, expect);
        }
      }
    }
    std::remove(mpath.c_str());
  }
}

TEST(SnapshotShardedTest, TruncatedTrailingSectionIsCorruption) {
  auto [store, index] = MixedWorld(1000);
  std::string path = TempPath("shardtrunc");
  SnapshotSaveOptions opts;
  opts.sync = false;
  opts.num_shards = 4;
  ASSERT_TRUE(SaveSnapshot(store, index, path, opts).ok());
  const std::string good = ReadWholeFile(path);
  std::remove(path.c_str());
  const std::vector<ShardSpan> spans = ShardSpansOf(good);
  const size_t last_end = spans.back().offset + spans.back().len;

  // Cuts landing inside the trailer, inside the postings section, exactly at
  // the end of the last shard section, and inside it — no prefix may load,
  // as a full file or as any single shard.
  for (size_t cut : {good.size() - 1, good.size() - 17, last_end + 4,
                     last_end, last_end - spans.back().len / 2}) {
    auto r = LoadBytes(good.substr(0, cut), "shardtrunc_cut");
    ASSERT_FALSE(r.ok()) << "cut " << cut;
    EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();

    std::string cpath = WriteBytes(good.substr(0, cut), "shardtrunc_shard");
    for (size_t s = 0; s < spans.size(); ++s) {
      auto shard = LoadSnapshotShard(cpath, s);
      ASSERT_FALSE(shard.ok()) << "cut " << cut << " shard " << s;
      EXPECT_TRUE(shard.status().IsCorruption())
          << shard.status().ToString();
    }
    std::remove(cpath.c_str());
  }
}

TEST(SnapshotShardedTest, CorruptionMatrixFlippedBitsNeverLoadCleanly) {
  ExpectEveryFlippedBitRejected(4);
}

TEST(SnapshotDurabilityTest, SaveIssuesFsyncsForFileAndDirectory) {
  // The regression this guards: SaveSnapshot used to write + rename without
  // a single fsync, so a crash after rename could publish a file whose
  // pages never reached disk — exactly the torn snapshot the atomic-rename
  // dance is supposed to prevent. The fsync counter is process-global, so
  // observe deltas.
  auto [store, index] = MixedWorld(100);
  std::string path = TempPath("durable");

  uint64_t before = internal::SnapshotFsyncCountForTesting();
  ASSERT_TRUE(SaveSnapshot(store, index, path).ok());
  uint64_t after = internal::SnapshotFsyncCountForTesting();
  // One fsync for the tmp file's data, one for the parent directory entry.
  EXPECT_GE(after - before, 2u);

  uint64_t before_nosync = internal::SnapshotFsyncCountForTesting();
  SnapshotSaveOptions nosync;
  nosync.sync = false;
  ASSERT_TRUE(SaveSnapshot(store, index, path, nosync).ok());
  EXPECT_EQ(internal::SnapshotFsyncCountForTesting(), before_nosync);

  // Either way the published file parses.
  EXPECT_TRUE(LoadSnapshot(path).ok());
  std::remove(path.c_str());
}

TEST(SnapshotDurabilityTest, NoTmpFileLeftBehindAfterSave) {
  auto [store, index] = MixedWorld(100);
  std::string path = TempPath("notmp");
  ASSERT_TRUE(SaveSnapshot(store, index, path).ok());
  struct ::stat st;
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0)
      << "tmp staging file must not outlive a successful save";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vexus::core
