#include "core/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/hybrid_bitset.h"
#include "common/logging.h"
#include "common/shard_map.h"

namespace vexus::core {

namespace {

constexpr char kMagic[4] = {'V', 'X', 'S', 'N'};
constexpr char kTrailerMagic[4] = {'V', 'X', 'T', 'R'};
constexpr uint32_t kVersionV1 = 1;
constexpr uint32_t kVersionV2 = 2;
constexpr uint32_t kVersionV3 = 3;
constexpr size_t kHeaderSize = 4 + 4 + 8;           // magic, version, num_users
constexpr size_t kTrailerSize = 4 * 8 + 3 * 4 + 4;  // offsets, crcs, magic

// v3 variable trailer: S shard entries, a postings entry, then a fixed tail.
constexpr size_t kV3ShardEntrySize = 4 * 8 + 4;  // offset, len, range, crc
constexpr size_t kV3PostingsEntrySize = 2 * 8 + 4;
constexpr size_t kV3TrailerTailSize = 8 + 4 + 4;  // num_shards, crc, magic

size_t V3TrailerSize(size_t num_shards) {
  return num_shards * kV3ShardEntrySize + kV3PostingsEntrySize +
         kV3TrailerTailSize;
}

// Group member-block encodings (v2).
constexpr uint8_t kEncodingSparse = 0;  // uvarint deltas, strictly ascending
constexpr uint8_t kEncodingRaw = 1;     // ceil(num_users/64) × u64 words

std::atomic<uint64_t> g_fsync_count{0};

Status Truncated() { return Status::Corruption("snapshot truncated"); }

// ---- little-endian buffer writers ----

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 8);
}

void AppendF32(std::string* out, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, 4);
  AppendU32(out, bits);
}

void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// ---- bounds-checked buffer reader ----

class Cursor {
 public:
  Cursor(const char* data, size_t len)
      : p_(reinterpret_cast<const unsigned char*>(data)), end_(p_ + len) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = *p_++;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::memcpy(v, p_, 4);
#else
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p_[i]) << (8 * i);
#endif
    p_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (remaining() < 8) return false;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::memcpy(v, p_, 8);
#else
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p_[i]) << (8 * i);
#endif
    p_ += 8;
    return true;
  }

  bool ReadF32(float* v) {
    uint32_t bits;
    if (!ReadU32(&bits)) return false;
    std::memcpy(v, &bits, 4);
    return true;
  }

  /// LEB128; rejects encodings longer than 10 bytes (64 payload bits).
  bool ReadVarint(uint64_t* v) {
    *v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (remaining() < 1) return false;
      uint8_t byte = *p_++;
      *v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return true;
    }
    return false;
  }

  bool ReadWords(size_t n, std::vector<uint64_t>* out) {
    if (remaining() < n * 8) return false;
    out->resize(n);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    // The raw member-block fast path: this is a single memcpy at memory
    // bandwidth, which is the whole point of encoding dense groups as LE
    // bitset words instead of one int per member.
    std::memcpy(out->data(), p_, n * 8);
#else
    for (size_t w = 0; w < n; ++w) {
      uint64_t v = 0;
      for (int i = 0; i < 8; ++i) {
        v |= static_cast<uint64_t>(p_[w * 8 + i]) << (8 * i);
      }
      (*out)[w] = v;
    }
#endif
    p_ += n * 8;
    return true;
  }

  /// Raw view for hand-rolled hot loops (sparse member decode). The caller
  /// must hand the advanced pointer back via AdvanceTo; `pos() <= q <= end`.
  const unsigned char* pos() const { return p_; }
  const unsigned char* end() const { return end_; }
  void AdvanceTo(const unsigned char* q) {
    VEXUS_CHECK(q >= p_ && q <= end_);
    p_ = q;
  }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
};

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

void EncodeGroupsV1(const mining::GroupStore& groups, std::string* out) {
  AppendU64(out, groups.size());
  for (mining::GroupId g = 0; g < groups.size(); ++g) {
    const mining::UserGroup& grp = groups.group(g);
    AppendU32(out, static_cast<uint32_t>(grp.description().size()));
    for (const mining::Descriptor& d : grp.description()) {
      AppendU32(out, d.attribute);
      AppendU32(out, d.value);
    }
    AppendU64(out, grp.size());
    grp.members().ForEach([out](uint32_t u) { AppendU32(out, u); });
  }
}

void EncodeGroupsV2(const mining::GroupStore& groups, std::string* out) {
  AppendU64(out, groups.size());
  std::string sparse;  // reused scratch across groups
  for (mining::GroupId g = 0; g < groups.size(); ++g) {
    const mining::UserGroup& grp = groups.group(g);
    AppendU32(out, static_cast<uint32_t>(grp.description().size()));
    for (const mining::Descriptor& d : grp.description()) {
      AppendU32(out, d.attribute);
      AppendU32(out, d.value);
    }
    AppendU64(out, grp.size());

    const HybridBitset& members = grp.members();
    sparse.clear();
    uint32_t prev = 0;
    bool first = true;
    members.ForEach([&](uint32_t u) {
      AppendVarint(&sparse, first ? u : u - prev);
      prev = u;
      first = false;
    });
    size_t raw_size = ((groups.num_users() + 63) / 64) * 8;
    if (sparse.size() <= raw_size) {
      AppendU8(out, kEncodingSparse);
      out->append(sparse);
    } else {
      AppendU8(out, kEncodingRaw);
      if (members.is_sparse()) {
        // Sparse in RAM but raw wins on disk (pathological delta spread):
        // materialize the words once for this group. Named, not iterated as
        // ToBitset().words(): the range-for would keep only the words
        // reference alive and read the destroyed temporary's storage.
        const Bitset dense = members.ToBitset();
        for (uint64_t w : dense.words()) AppendU64(out, w);
      } else {
        for (uint64_t w : members.dense_form().words()) AppendU64(out, w);
      }
    }
  }
}

void EncodePostings(const index::InvertedIndex& index, std::string* out) {
  AppendU64(out, index.num_groups());
  for (mining::GroupId g = 0; g < index.num_groups(); ++g) {
    const auto& list = index.Neighbors(g);
    AppendU32(out, static_cast<uint32_t>(list.size()));
    for (const index::Neighbor& nb : list) {
      AppendU32(out, nb.group);
      AppendF32(out, nb.similarity);
    }
  }
}

std::string EncodeSnapshot(const mining::GroupStore& groups,
                           const index::InvertedIndex& index,
                           uint32_t version) {
  std::string payload;
  payload.append(kMagic, 4);
  AppendU32(&payload, version);
  AppendU64(&payload, groups.num_users());

  if (version == kVersionV1) {
    EncodeGroupsV1(groups, &payload);
    EncodePostings(index, &payload);
    return payload;
  }

  std::string groups_sec;
  EncodeGroupsV2(groups, &groups_sec);
  std::string postings_sec;
  EncodePostings(index, &postings_sec);

  uint64_t groups_offset = payload.size();
  payload.append(groups_sec);
  uint64_t postings_offset = payload.size();
  payload.append(postings_sec);

  std::string trailer;
  AppendU64(&trailer, groups_offset);
  AppendU64(&trailer, groups_sec.size());
  AppendU64(&trailer, postings_offset);
  AppendU64(&trailer, postings_sec.size());
  // The groups CRC starts at byte 0, not at the section: the header fields
  // (magic, version, num_users) would otherwise be the one unprotected spot
  // — a bit flip in num_users could parse into a store with the wrong
  // universe size and only fail much later, far from the corruption.
  AppendU32(&trailer,
            Crc32(payload.data(), groups_offset + groups_sec.size()));
  AppendU32(&trailer, Crc32(postings_sec.data(), postings_sec.size()));
  AppendU32(&trailer, Crc32(trailer.data(), trailer.size()));
  trailer.append(kTrailerMagic, 4);
  VEXUS_DCHECK(trailer.size() == kTrailerSize);
  payload.append(trailer);
  return payload;
}

/// One shard's self-contained group section (v3): every group's descriptors
/// plus the members inside the shard's word range, in the v2 member-block
/// encodings (raw blocks span only the shard's words). Descriptors repeat
/// per section on purpose — that is what makes a section loadable without
/// touching any other.
void EncodeGroupsShard(const mining::GroupStore& groups,
                       const ShardMap::Range& r, std::string* out) {
  AppendU64(out, groups.size());
  std::string sparse;           // reused scratch across groups
  std::vector<uint32_t> ids;    // members of the current group in range
  for (mining::GroupId g = 0; g < groups.size(); ++g) {
    const mining::UserGroup& grp = groups.group(g);
    AppendU32(out, static_cast<uint32_t>(grp.description().size()));
    for (const mining::Descriptor& d : grp.description()) {
      AppendU32(out, d.attribute);
      AppendU32(out, d.value);
    }
    ids.clear();
    grp.members().ForEachInRange(r.word_begin, r.word_end,
                                 [&](uint32_t u) { ids.push_back(u); });
    AppendU64(out, ids.size());

    sparse.clear();
    uint32_t prev = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      AppendVarint(&sparse, i == 0 ? ids[i] : ids[i] - prev);
      prev = ids[i];
    }
    size_t raw_size = r.num_words() * 8;
    if (sparse.size() <= raw_size) {
      AppendU8(out, kEncodingSparse);
      out->append(sparse);
    } else {
      AppendU8(out, kEncodingRaw);
      std::vector<uint64_t> words(r.num_words(), 0);
      for (uint32_t u : ids) {
        words[(u >> 6) - r.word_begin] |= uint64_t{1} << (u & 63);
      }
      for (uint64_t w : words) AppendU64(out, w);
    }
  }
}

std::string EncodeSnapshotV3(const mining::GroupStore& groups,
                             const index::InvertedIndex& index,
                             const ShardMap& shards) {
  std::string payload;
  payload.append(kMagic, 4);
  AppendU32(&payload, kVersionV3);
  AppendU64(&payload, groups.num_users());

  const size_t S = shards.num_shards();
  std::vector<uint64_t> offsets(S), lens(S);
  std::vector<uint32_t> crcs(S);
  for (size_t s = 0; s < S; ++s) {
    offsets[s] = payload.size();
    std::string sec;
    EncodeGroupsShard(groups, shards.shard(s), &sec);
    lens[s] = sec.size();
    payload.append(sec);
    // Shard 0's CRC starts at byte 0 so the header rides along (same
    // rationale as v2's groups CRC); later sections cover their own bytes.
    crcs[s] = s == 0 ? Crc32(payload.data(), offsets[0] + lens[0])
                     : Crc32(payload.data() + offsets[s], lens[s]);
  }

  uint64_t postings_offset = payload.size();
  std::string postings_sec;
  EncodePostings(index, &postings_sec);
  payload.append(postings_sec);

  std::string trailer;
  for (size_t s = 0; s < S; ++s) {
    AppendU64(&trailer, offsets[s]);
    AppendU64(&trailer, lens[s]);
    AppendU64(&trailer, shards.shard(s).user_begin);
    AppendU64(&trailer, shards.shard(s).user_end);
    AppendU32(&trailer, crcs[s]);
  }
  AppendU64(&trailer, postings_offset);
  AppendU64(&trailer, postings_sec.size());
  AppendU32(&trailer, Crc32(postings_sec.data(), postings_sec.size()));
  AppendU64(&trailer, S);
  AppendU32(&trailer, Crc32(trailer.data(), trailer.size()));
  trailer.append(kTrailerMagic, 4);
  VEXUS_DCHECK(trailer.size() == V3TrailerSize(S));
  payload.append(trailer);
  return payload;
}

// ---------------------------------------------------------------------------
// Durable write: tmp + fsync + rename + directory fsync
// ---------------------------------------------------------------------------

Status SyncFd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    // EINVAL: the filesystem does not support fsync on this object (some
    // network/fuse mounts for directories). Nothing further we can do.
    if (errno == EINVAL) return Status::OK();
    return Status::IOError("fsync failed on " + what);
  }
  g_fsync_count.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status WriteFileAtomically(const std::string& path, const std::string& payload,
                           bool sync) {
  // Simulates EMFILE / a missing or read-only snapshot directory.
  VEXUS_FAILPOINT("snapshot.save.open");
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IOError("cannot open '" + tmp + "' for writing");

  // Simulates ENOSPC mid-payload: the disk accepts a prefix of the payload
  // and then the next write() fails. The save must abandon the tmp file and
  // report the error — the previous good snapshot at `path` is untouched
  // because the rename below never runs. (A *silent* tear — prefix written,
  // no error — is only reachable via a crash, and then the rename doesn't
  // run either; the chaos harness asserts both halves of that contract.)
  const size_t fail_after = VEXUS_FAILPOINT_FIRES("snapshot.save.short_write")
                                ? payload.size() / 2
                                : std::string::npos;

  size_t off = 0;
  while (off < payload.size()) {
    if (off >= fail_after) {
      ::close(fd);
      ::remove(tmp.c_str());
      return Status::IOError("write failed on '" + tmp +
                             "' (injected ENOSPC after " +
                             std::to_string(off) + " bytes)");
    }
    size_t want = std::min(payload.size(), fail_after) - off;
    ssize_t n = ::write(fd, payload.data() + off, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::remove(tmp.c_str());
      return Status::IOError("write failed on '" + tmp + "'");
    }
    off += static_cast<size_t>(n);
  }

  // Durability step 1: the tmp file's *contents* must be on disk before the
  // rename makes it visible — otherwise a crash after the rename can leave a
  // truncated/empty file at `path` that passed std::rename just fine.
  if (sync) {
    // Simulates fsync returning EIO — the kernel dropped dirty pages.
    Status s = failpoint::Fires("snapshot.save.fsync")
                   ? Status::IOError("injected fsync failure on '" + tmp + "'")
                   : SyncFd(fd, "'" + tmp + "'");
    if (!s.ok()) {
      ::close(fd);
      ::remove(tmp.c_str());
      return s;
    }
  }
  if (::close(fd) != 0) {
    ::remove(tmp.c_str());
    return Status::IOError("close failed on '" + tmp + "'");
  }

  // Simulates rename failing (target directory deleted, EXDEV after a
  // mount change). The tmp file is cleaned up either way.
  if (failpoint::Fires("snapshot.save.rename") ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::remove(tmp.c_str());
    return Status::IOError("cannot rename snapshot into '" + path + "'");
  }

  // Durability step 2: the rename itself is a directory mutation; fsync the
  // parent directory so the new directory entry survives a crash.
  if (sync) {
    size_t slash = path.find_last_of('/');
    std::string dir =
        slash == std::string::npos ? "." : path.substr(0, std::max<size_t>(slash, 1));
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd < 0) {
      return Status::IOError("cannot open directory '" + dir +
                             "' to sync the rename");
    }
    Status s = SyncFd(dfd, "directory '" + dir + "'");
    ::close(dfd);
    VEXUS_RETURN_NOT_OK(s);
  }
  return Status::OK();
}

Result<std::string> ReadFileFully(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open '" + path + "'");
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat '" + path + "'");
  }
  std::string buf;
  buf.resize(static_cast<size_t>(st.st_size));
  size_t off = 0;
  while (off < buf.size()) {
    ssize_t n = ::read(fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("read failed on '" + path + "'");
    }
    if (n == 0) break;  // file shrank under us; parse will flag truncation
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  buf.resize(off);
  return buf;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Shared tail of both versions: descriptor list + member count header.
Status ParseGroupHeader(Cursor* cur, uint64_t num_users,
                        std::vector<mining::Descriptor>* desc,
                        uint64_t* member_count) {
  uint32_t desc_len;
  if (!cur->ReadU32(&desc_len)) return Truncated();
  if (static_cast<uint64_t>(desc_len) * 8 > cur->remaining()) {
    return Truncated();
  }
  desc->clear();
  desc->reserve(desc_len);
  for (uint32_t i = 0; i < desc_len; ++i) {
    mining::Descriptor d;
    if (!cur->ReadU32(&d.attribute) || !cur->ReadU32(&d.value)) {
      return Truncated();
    }
    desc->push_back(d);
  }
  if (!cur->ReadU64(member_count)) return Truncated();
  if (*member_count > num_users) {
    return Status::Corruption("group claims more members than users");
  }
  return Status::OK();
}

Status AddParsedGroup(mining::GroupStore* store, uint64_t expected_id,
                      std::vector<mining::Descriptor> desc,
                      HybridBitset members) {
  mining::GroupId assigned =
      store->Add(mining::UserGroup(std::move(desc), std::move(members)));
  if (assigned != expected_id) {
    // Stores never hold duplicate (description, extent) pairs, so a dedup
    // hit here means the file repeats a group — ids would shift and the
    // posting lists would dangle.
    return Status::Corruption("duplicate group in snapshot");
  }
  return Status::OK();
}

Status ParseGroupsV1(Cursor* cur, uint64_t num_users, uint64_t num_groups,
                     mining::GroupStore* store) {
  std::vector<mining::Descriptor> desc;
  for (uint64_t g = 0; g < num_groups; ++g) {
    uint64_t member_count;
    VEXUS_RETURN_NOT_OK(ParseGroupHeader(cur, num_users, &desc, &member_count));
    Bitset members(num_users);
    for (uint64_t i = 0; i < member_count; ++i) {
      uint32_t u;
      if (!cur->ReadU32(&u)) return Truncated();
      if (u >= num_users) return Status::Corruption("member id out of range");
      if (members.Test(u)) {
        // Pre-fix this silently shrank the group: Set(u) twice stores one
        // bit, so the loaded extent disagreed with the written one.
        return Status::Corruption("duplicate member id in group");
      }
      members.Set(u);
    }
    VEXUS_RETURN_NOT_OK(AddParsedGroup(store, g, std::move(desc),
                                       HybridBitset::FromBitset(
                                           std::move(members))));
  }
  return Status::OK();
}

Status ParseGroupsV2(Cursor* cur, uint64_t num_users, uint64_t num_groups,
                     mining::GroupStore* store) {
  const size_t words_per_group = (num_users + 63) / 64;
  const uint64_t sparse_threshold = HybridBitset::SparseThresholdFor(num_users);
  std::vector<mining::Descriptor> desc;
  std::vector<uint64_t> words;
  for (uint64_t g = 0; g < num_groups; ++g) {
    uint64_t member_count;
    VEXUS_RETURN_NOT_OK(ParseGroupHeader(cur, num_users, &desc, &member_count));
    uint8_t encoding;
    if (!cur->ReadU8(&encoding)) return Truncated();

    HybridBitset members;
    if (encoding == kEncodingSparse) {
      // Hand-rolled LEB128 delta decode: this loop runs once per member
      // across the whole snapshot, so it works on raw pointers (one bounds
      // check per byte consumed, no per-call function overhead). Groups at
      // or below the in-RAM density threshold decode straight into the
      // hybrid sparse form — the strictly-ascending id array IS the decoded
      // container, no word materialization at all; denser groups fall back
      // to writing bits into the word array. Strictly ascending ids mean
      // every id is fresh, so count == member_count by construction — no
      // separate verification pass is needed.
      const unsigned char* p = cur->pos();
      const unsigned char* const end = cur->end();
      const bool to_sparse = member_count <= sparse_threshold;
      std::vector<uint32_t> ids;
      if (to_sparse) {
        ids.reserve(member_count);
      } else {
        words.assign(words_per_group, 0);
      }
      uint64_t id = 0;
      // ReadVarint with the multi-byte continuation peeled off: deltas
      // between neighbouring members of a non-degenerate group are almost
      // always < 128, so the common case is one load, one test, one OR.
      const auto read_delta = [&p, end](uint64_t* delta) -> bool {
        if (p == end) return false;
        uint64_t v = *p++;
        if ((v & 0x80) != 0) {
          v &= 0x7f;
          int shift = 7;
          for (;;) {
            if (p == end || shift >= 64) return false;
            const uint8_t byte = *p++;
            v |= static_cast<uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0) break;
            shift += 7;
          }
        }
        *delta = v;
        return true;
      };
      // First member peeled: it is an absolute id (delta 0 is legal there),
      // so the loop body only handles the strictly-positive-delta case.
      if (member_count > 0) {
        if (!read_delta(&id)) return Truncated();
        if (id >= num_users) {
          return Status::Corruption("member id out of range");
        }
        if (to_sparse) {
          ids.push_back(static_cast<uint32_t>(id));
        } else {
          words[id >> 6] |= uint64_t{1} << (id & 63);
        }
      }
      for (uint64_t i = 1; i < member_count; ++i) {
        uint64_t delta;
        if (!read_delta(&delta)) return Truncated();
        if (delta == 0) {
          return Status::Corruption("duplicate member id in group");
        }
        id += delta;
        if (id >= num_users) {
          return Status::Corruption("member id out of range");
        }
        if (to_sparse) {
          ids.push_back(static_cast<uint32_t>(id));
        } else {
          words[id >> 6] |= uint64_t{1} << (id & 63);
        }
      }
      cur->AdvanceTo(p);
      if (to_sparse) {
        members = HybridBitset::FromSortedIds(num_users, std::move(ids));
      } else {
        Bitset dense;
        if (!dense.AdoptWords(num_users, std::move(words))) {
          return Status::Corruption("member id out of range");
        }
        words = {};
        members = HybridBitset::FromBitset(std::move(dense));
      }
    } else if (encoding == kEncodingRaw) {
      if (!cur->ReadWords(words_per_group, &words)) return Truncated();
      Bitset dense;
      if (!dense.AdoptWords(num_users, std::move(words))) {
        return Status::Corruption("raw member block has bits beyond universe");
      }
      words = {};
      if (dense.Count() != member_count) {
        return Status::Corruption(
            "raw member block popcount disagrees with member_count");
      }
      // FromBitset normalizes: a tiny raw-encoded group still lands in the
      // canonical sparse form.
      members = HybridBitset::FromBitset(std::move(dense));
    } else {
      return Status::Corruption("unknown member-block encoding");
    }
    VEXUS_RETURN_NOT_OK(
        AddParsedGroup(store, g, std::move(desc), std::move(members)));
  }
  return Status::OK();
}

Status ParsePostings(Cursor* cur, uint64_t num_groups,
                     std::vector<std::vector<index::Neighbor>>* lists) {
  uint64_t num_lists;
  if (!cur->ReadU64(&num_lists)) return Truncated();
  if (num_lists != num_groups) {
    return Status::Corruption("posting-list count mismatch");
  }
  lists->resize(num_lists);
  for (uint64_t g = 0; g < num_lists; ++g) {
    uint32_t len;
    if (!cur->ReadU32(&len)) return Truncated();
    if (static_cast<uint64_t>(len) * 8 > cur->remaining()) return Truncated();
    (*lists)[g].reserve(len);
    for (uint32_t i = 0; i < len; ++i) {
      index::Neighbor nb;
      if (!cur->ReadU32(&nb.group) || !cur->ReadF32(&nb.similarity)) {
        return Truncated();
      }
      if (nb.group >= num_groups) {
        return Status::Corruption("posting references unknown group");
      }
      (*lists)[g].push_back(nb);
    }
  }
  return Status::OK();
}

Result<Snapshot> ParseV1(const std::string& buf, uint64_t num_users) {
  Cursor cur(buf.data() + kHeaderSize, buf.size() - kHeaderSize);
  uint64_t num_groups;
  if (!cur.ReadU64(&num_groups)) return Truncated();
  // Bomb guard: each group costs ≥ 12 bytes, so a corrupt count cannot force
  // a giant allocation before the per-group reads start failing.
  if (num_groups > buf.size() / 12) {
    return Status::Corruption("group count exceeds file size");
  }
  mining::GroupStore store(num_users);
  VEXUS_RETURN_NOT_OK(ParseGroupsV1(&cur, num_users, num_groups, &store));

  std::vector<std::vector<index::Neighbor>> lists;
  VEXUS_RETURN_NOT_OK(ParsePostings(&cur, num_groups, &lists));
  if (cur.remaining() != 0) {
    // Pre-fix the stream loader stopped reading here and accepted the file;
    // bytes after the last posting list mean the writer and reader disagree
    // about the format, so nothing upstream can be trusted.
    return Status::Corruption("trailing garbage after posting lists");
  }
  return Snapshot{std::move(store),
                  index::InvertedIndex::FromPostings(std::move(lists))};
}

Result<Snapshot> ParseV2(const std::string& buf, uint64_t num_users) {
  if (buf.size() < kHeaderSize + kTrailerSize) return Truncated();

  // Trailer first: offsets + checksums let us validate sections before
  // trusting any length field inside them.
  Cursor tcur(buf.data() + buf.size() - kTrailerSize, kTrailerSize);
  uint64_t groups_offset, groups_len, postings_offset, postings_len;
  uint32_t groups_crc, postings_crc, trailer_crc;
  (void)tcur.ReadU64(&groups_offset);
  (void)tcur.ReadU64(&groups_len);
  (void)tcur.ReadU64(&postings_offset);
  (void)tcur.ReadU64(&postings_len);
  (void)tcur.ReadU32(&groups_crc);
  (void)tcur.ReadU32(&postings_crc);
  (void)tcur.ReadU32(&trailer_crc);
  if (std::memcmp(buf.data() + buf.size() - 4, kTrailerMagic, 4) != 0) {
    return Status::Corruption("bad snapshot trailer magic");
  }
  if (Crc32(buf.data() + buf.size() - kTrailerSize, kTrailerSize - 8) !=
      trailer_crc) {
    return Status::Corruption("trailer checksum mismatch");
  }
  // The header, the two sections, and the trailer must tile the file
  // exactly — trailing garbage or overlapping sections fail here.
  if (groups_offset != kHeaderSize || groups_len < 8 || postings_len < 8 ||
      postings_offset != groups_offset + groups_len ||
      postings_offset + postings_len + kTrailerSize != buf.size()) {
    return Status::Corruption("snapshot sections do not tile the file");
  }
  // The groups CRC covers the header too (see EncodeSnapshot): everything
  // from byte 0 through the end of the groups section.
  if (Crc32(buf.data(), groups_offset + groups_len) != groups_crc) {
    return Status::Corruption("groups section checksum mismatch");
  }
  if (Crc32(buf.data() + postings_offset, postings_len) != postings_crc) {
    return Status::Corruption("postings section checksum mismatch");
  }

  Cursor gcur(buf.data() + groups_offset, groups_len);
  uint64_t num_groups;
  if (!gcur.ReadU64(&num_groups)) return Truncated();
  if (num_groups > groups_len / 13) {  // ≥ 13 bytes per group in v2
    return Status::Corruption("group count exceeds section size");
  }
  mining::GroupStore store(num_users);
  VEXUS_RETURN_NOT_OK(ParseGroupsV2(&gcur, num_users, num_groups, &store));
  if (gcur.remaining() != 0) {
    return Status::Corruption("trailing bytes in groups section");
  }

  Cursor pcur(buf.data() + postings_offset, postings_len);
  std::vector<std::vector<index::Neighbor>> lists;
  VEXUS_RETURN_NOT_OK(ParsePostings(&pcur, num_groups, &lists));
  if (pcur.remaining() != 0) {
    return Status::Corruption("trailing bytes in postings section");
  }
  return Snapshot{std::move(store),
                  index::InvertedIndex::FromPostings(std::move(lists))};
}

// ---------------------------------------------------------------------------
// v3: per-shard group sections
// ---------------------------------------------------------------------------

struct V3ShardEntry {
  uint64_t offset = 0, len = 0, user_begin = 0, user_end = 0;
  uint32_t crc = 0;
};

struct V3Trailer {
  std::vector<V3ShardEntry> shards;
  uint64_t postings_offset = 0, postings_len = 0;
  uint32_t postings_crc = 0;
};

/// Reads + validates the v3 variable trailer: magic, trailer CRC, exact
/// tiling of the file by the shard sections + postings + trailer, and the
/// shard ranges matching ShardMap(num_users, S) — the same partition the
/// preprocessing and serving layers compute, so a shard server and the
/// snapshot can never disagree about who owns which users. Section CRCs are
/// NOT checked here — LoadSnapshotShard verifies only its own section.
Result<V3Trailer> ParseV3Trailer(const std::string& buf, uint64_t num_users) {
  if (buf.size() < kHeaderSize + V3TrailerSize(1)) return Truncated();
  if (std::memcmp(buf.data() + buf.size() - 4, kTrailerMagic, 4) != 0) {
    return Status::Corruption("bad snapshot trailer magic");
  }
  Cursor tail(buf.data() + buf.size() - kV3TrailerTailSize,
              kV3TrailerTailSize);
  uint64_t num_shards;
  uint32_t trailer_crc;
  (void)tail.ReadU64(&num_shards);
  (void)tail.ReadU32(&trailer_crc);
  // Bomb guard: each shard costs a trailer entry, so a corrupt count cannot
  // force a giant allocation before the size check below fails.
  if (num_shards == 0 || num_shards > buf.size() / kV3ShardEntrySize) {
    return Status::Corruption("shard count exceeds file size");
  }
  const size_t trailer_size = V3TrailerSize(num_shards);
  if (buf.size() < kHeaderSize + trailer_size) return Truncated();
  const char* tstart = buf.data() + buf.size() - trailer_size;
  if (Crc32(tstart, trailer_size - 8) != trailer_crc) {
    return Status::Corruption("trailer checksum mismatch");
  }

  V3Trailer t;
  Cursor cur(tstart, trailer_size - kV3TrailerTailSize);
  t.shards.resize(num_shards);
  for (V3ShardEntry& e : t.shards) {
    (void)cur.ReadU64(&e.offset);
    (void)cur.ReadU64(&e.len);
    (void)cur.ReadU64(&e.user_begin);
    (void)cur.ReadU64(&e.user_end);
    (void)cur.ReadU32(&e.crc);
  }
  (void)cur.ReadU64(&t.postings_offset);
  (void)cur.ReadU64(&t.postings_len);
  (void)cur.ReadU32(&t.postings_crc);

  // Sections must tile the file exactly: shard order, postings last. The
  // per-entry length bound stops a huge u64 from wrapping the running sum.
  uint64_t expect = kHeaderSize;
  for (const V3ShardEntry& e : t.shards) {
    if (e.len < 8 || e.len > buf.size() || e.offset != expect) {
      return Status::Corruption("snapshot sections do not tile the file");
    }
    expect += e.len;
  }
  if (t.postings_len < 8 || t.postings_len > buf.size() ||
      t.postings_offset != expect ||
      t.postings_offset + t.postings_len + trailer_size != buf.size()) {
    return Status::Corruption("snapshot sections do not tile the file");
  }

  ShardMap map(num_users, num_shards);
  if (map.num_shards() != num_shards) {
    return Status::Corruption("shard count impossible for universe size");
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (t.shards[s].user_begin != map.shard(s).user_begin ||
        t.shards[s].user_end != map.shard(s).user_end) {
      return Status::Corruption("shard ranges disagree with the shard map");
    }
  }
  return t;
}

/// Parses one shard's group section, appending each group's in-range member
/// ids to `ids` (ascending: within a section ids ascend, and sections are
/// visited in shard order). The first section fixes the group count and
/// descriptors; later sections must agree (their CRCs already passed, so a
/// mismatch means the writer was broken, not the media).
Status ParseShardGroupsSection(
    const char* data, size_t len, uint64_t num_users,
    const ShardMap::Range& r, bool first, uint64_t* num_groups,
    std::vector<std::vector<mining::Descriptor>>* descs,
    std::vector<std::vector<uint32_t>>* ids) {
  Cursor cur(data, len);
  uint64_t n;
  if (!cur.ReadU64(&n)) return Truncated();
  if (n > len / 13) {  // ≥ 13 bytes per group, as in v2
    return Status::Corruption("group count exceeds section size");
  }
  if (first) {
    *num_groups = n;
    descs->resize(n);
    ids->resize(n);
  } else if (n != *num_groups) {
    return Status::Corruption("shard sections disagree on group count");
  }
  std::vector<mining::Descriptor> desc;
  const uint64_t shard_users = r.user_end - r.user_begin;
  for (uint64_t g = 0; g < n; ++g) {
    uint64_t member_count;
    VEXUS_RETURN_NOT_OK(
        ParseGroupHeader(&cur, num_users, &desc, &member_count));
    if (first) {
      (*descs)[g] = desc;
    } else {
      const std::vector<mining::Descriptor>& have = (*descs)[g];
      bool same = desc.size() == have.size();
      for (size_t i = 0; same && i < desc.size(); ++i) {
        same = desc[i].attribute == have[i].attribute &&
               desc[i].value == have[i].value;
      }
      if (!same) {
        return Status::Corruption(
            "shard sections disagree on group descriptors");
      }
    }
    if (member_count > shard_users) {
      return Status::Corruption("group claims more members than shard users");
    }
    uint8_t encoding;
    if (!cur.ReadU8(&encoding)) return Truncated();
    std::vector<uint32_t>& out = (*ids)[g];
    out.reserve(out.size() + member_count);
    if (encoding == kEncodingSparse) {
      uint64_t id = 0;
      for (uint64_t i = 0; i < member_count; ++i) {
        uint64_t delta;
        if (!cur.ReadVarint(&delta)) return Truncated();
        if (i == 0) {
          id = delta;
        } else {
          if (delta == 0) {
            return Status::Corruption("duplicate member id in group");
          }
          id += delta;
        }
        if (id < r.user_begin || id >= r.user_end) {
          return Status::Corruption("member id outside shard range");
        }
        out.push_back(static_cast<uint32_t>(id));
      }
    } else if (encoding == kEncodingRaw) {
      std::vector<uint64_t> words;
      if (!cur.ReadWords(r.num_words(), &words)) return Truncated();
      uint64_t count = 0;
      for (size_t w = 0; w < words.size(); ++w) {
        uint64_t bits = words[w];
        while (bits != 0) {
          const int b = __builtin_ctzll(bits);
          bits &= bits - 1;
          const uint64_t id = (r.word_begin + w) * 64 + b;
          if (id >= r.user_end) {
            return Status::Corruption(
                "raw member block has bits beyond shard range");
          }
          out.push_back(static_cast<uint32_t>(id));
          ++count;
        }
      }
      if (count != member_count) {
        return Status::Corruption(
            "raw member block popcount disagrees with member_count");
      }
    } else {
      return Status::Corruption("unknown member-block encoding");
    }
  }
  if (cur.remaining() != 0) {
    return Status::Corruption("trailing bytes in groups section");
  }
  return Status::OK();
}

/// Folds per-shard id streams into canonical HybridBitset members. Shard
/// ranges are disjoint and visited in order, so each stream is sorted and
/// duplicate-free by construction.
Result<mining::GroupStore> BuildStoreFromShardIds(
    uint64_t num_users, std::vector<std::vector<mining::Descriptor>>* descs,
    std::vector<std::vector<uint32_t>>* ids) {
  const uint64_t sparse_threshold =
      HybridBitset::SparseThresholdFor(num_users);
  mining::GroupStore store(num_users);
  for (size_t g = 0; g < descs->size(); ++g) {
    HybridBitset members;
    if ((*ids)[g].size() <= sparse_threshold) {
      members = HybridBitset::FromSortedIds(num_users, std::move((*ids)[g]));
    } else {
      Bitset dense(num_users);
      for (uint32_t u : (*ids)[g]) dense.Set(u);
      (*ids)[g] = {};
      members = HybridBitset::FromBitset(std::move(dense));
    }
    VEXUS_RETURN_NOT_OK(AddParsedGroup(&store, g, std::move((*descs)[g]),
                                       std::move(members)));
  }
  return store;
}

Result<Snapshot> ParseV3(const std::string& buf, uint64_t num_users) {
  VEXUS_ASSIGN_OR_RETURN(V3Trailer t, ParseV3Trailer(buf, num_users));
  const size_t S = t.shards.size();
  const ShardMap map(num_users, S);
  // CRC every section before parsing any (shard 0's covers the header, same
  // rationale as v2's groups CRC).
  for (size_t s = 0; s < S; ++s) {
    const V3ShardEntry& e = t.shards[s];
    const uint32_t crc = s == 0 ? Crc32(buf.data(), e.offset + e.len)
                                : Crc32(buf.data() + e.offset, e.len);
    if (crc != e.crc) {
      return Status::Corruption("shard " + std::to_string(s) +
                                " section checksum mismatch");
    }
  }
  if (Crc32(buf.data() + t.postings_offset, t.postings_len) !=
      t.postings_crc) {
    return Status::Corruption("postings section checksum mismatch");
  }

  uint64_t num_groups = 0;
  std::vector<std::vector<mining::Descriptor>> descs;
  std::vector<std::vector<uint32_t>> ids;
  for (size_t s = 0; s < S; ++s) {
    VEXUS_RETURN_NOT_OK(ParseShardGroupsSection(
        buf.data() + t.shards[s].offset, t.shards[s].len, num_users,
        map.shard(s), /*first=*/s == 0, &num_groups, &descs, &ids));
  }
  VEXUS_ASSIGN_OR_RETURN(mining::GroupStore store,
                         BuildStoreFromShardIds(num_users, &descs, &ids));

  Cursor pcur(buf.data() + t.postings_offset, t.postings_len);
  std::vector<std::vector<index::Neighbor>> lists;
  VEXUS_RETURN_NOT_OK(ParsePostings(&pcur, num_groups, &lists));
  if (pcur.remaining() != 0) {
    return Status::Corruption("trailing bytes in postings section");
  }
  return Snapshot{std::move(store),
                  index::InvertedIndex::FromPostings(std::move(lists))};
}

}  // namespace

Status SaveSnapshot(const mining::GroupStore& groups,
                    const index::InvertedIndex& index, const std::string& path,
                    const SnapshotSaveOptions& options, const TraceSpan* span) {
  if (index.num_groups() != groups.size()) {
    return Status::InvalidArgument(
        "index and group store cover different group sets");
  }
  if (options.version != kVersionV1 && options.version != kVersionV2) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(options.version));
  }
  TraceSpan save = span != nullptr ? span->Child("save") : TraceSpan();
  // num_shards > 1 selects format v3 (per-shard sections); a universe too
  // small to split clamps back to one shard and stays plain v2/v1, so small
  // deployments never pay the multi-section trailer.
  const ShardMap shards(groups.num_users(),
                        std::max<size_t>(1, options.num_shards));
  std::string payload =
      options.version == kVersionV2 && shards.num_shards() > 1
          ? EncodeSnapshotV3(groups, index, shards)
          : EncodeSnapshot(groups, index, options.version);
  save.AddCount(payload.size());
  // Simulates silent media corruption between encode and persist: one payload
  // byte is flipped, the write itself "succeeds", and the damage is only
  // discoverable by LoadSnapshot's checksums.
  if (VEXUS_FAILPOINT_FIRES("snapshot.save.corrupt") && !payload.empty()) {
    payload[payload.size() / 2] ^= 0x40;
  }
  return WriteFileAtomically(path, payload, options.sync);
}

Result<Snapshot> LoadSnapshot(const std::string& path, const TraceSpan* span) {
  TraceSpan load = span != nullptr ? span->Child("load") : TraceSpan();
  // Simulates an unreadable snapshot file (EIO, NFS server gone).
  VEXUS_FAILPOINT("snapshot.load.read");
  VEXUS_ASSIGN_OR_RETURN(std::string buf, ReadFileFully(path));
  load.AddCount(buf.size());
  // Simulates bit rot on the read path: the file on disk is fine but the
  // bytes we parsed are not. Checksums must catch it.
  if (VEXUS_FAILPOINT_FIRES("snapshot.load.corrupt") && !buf.empty()) {
    buf[buf.size() / 2] ^= 0x40;
  }

  if (buf.size() < kHeaderSize) return Truncated();
  if (std::memcmp(buf.data(), kMagic, 4) != 0) {
    return Status::Corruption("bad snapshot magic");
  }
  Cursor hcur(buf.data() + 4, kHeaderSize - 4);
  uint32_t version;
  uint64_t num_users;
  (void)hcur.ReadU32(&version);
  (void)hcur.ReadU64(&num_users);
  if (version != kVersionV1 && version != kVersionV2 &&
      version != kVersionV3) {
    return Status::NotSupported("snapshot version " + std::to_string(version) +
                                " (expected " + std::to_string(kVersionV1) +
                                ".." + std::to_string(kVersionV3) + ")");
  }
  if (num_users > (uint64_t{1} << 32)) {
    return Status::Corruption("user universe exceeds 32-bit user ids");
  }
  if (version == kVersionV1) return ParseV1(buf, num_users);
  if (version == kVersionV2) return ParseV2(buf, num_users);
  return ParseV3(buf, num_users);
}

Result<SnapshotShard> LoadSnapshotShard(const std::string& path, size_t shard,
                                        const TraceSpan* span) {
  TraceSpan load = span != nullptr ? span->Child("load_shard") : TraceSpan();
  VEXUS_FAILPOINT("snapshot.load.read");
  VEXUS_ASSIGN_OR_RETURN(std::string buf, ReadFileFully(path));
  load.AddCount(buf.size());

  if (buf.size() < kHeaderSize) return Truncated();
  if (std::memcmp(buf.data(), kMagic, 4) != 0) {
    return Status::Corruption("bad snapshot magic");
  }
  Cursor hcur(buf.data() + 4, kHeaderSize - 4);
  uint32_t version;
  uint64_t num_users;
  (void)hcur.ReadU32(&version);
  (void)hcur.ReadU64(&num_users);
  if (num_users > (uint64_t{1} << 32)) {
    return Status::Corruption("user universe exceeds 32-bit user ids");
  }

  if (version == kVersionV1 || version == kVersionV2) {
    // Single-section formats are "shard 0 of 1": a deployment that never
    // sharded still cold-starts through the same entry point.
    if (shard != 0) {
      return Status::InvalidArgument(
          "shard index out of range for single-section snapshot");
    }
    VEXUS_ASSIGN_OR_RETURN(Snapshot snap, version == kVersionV1
                                              ? ParseV1(buf, num_users)
                                              : ParseV2(buf, num_users));
    return SnapshotShard{/*shard=*/0, /*num_shards=*/1, /*user_begin=*/0,
                         static_cast<uint32_t>(num_users),
                         std::move(snap.groups)};
  }
  if (version != kVersionV3) {
    return Status::NotSupported("snapshot version " + std::to_string(version) +
                                " (expected " + std::to_string(kVersionV1) +
                                ".." + std::to_string(kVersionV3) + ")");
  }

  VEXUS_ASSIGN_OR_RETURN(V3Trailer t, ParseV3Trailer(buf, num_users));
  if (shard >= t.shards.size()) {
    return Status::InvalidArgument(
        "shard index " + std::to_string(shard) + " out of range (snapshot has " +
        std::to_string(t.shards.size()) + " shards)");
  }
  // Only this shard's section is checksummed — a flipped bit in another
  // shard's section must not block this shard's cold start (tested).
  const V3ShardEntry& e = t.shards[shard];
  const uint32_t crc = shard == 0 ? Crc32(buf.data(), e.offset + e.len)
                                  : Crc32(buf.data() + e.offset, e.len);
  if (crc != e.crc) {
    return Status::Corruption("shard " + std::to_string(shard) +
                              " section checksum mismatch");
  }

  const ShardMap map(num_users, t.shards.size());
  const ShardMap::Range& r = map.shard(shard);
  uint64_t num_groups = 0;
  std::vector<std::vector<mining::Descriptor>> descs;
  std::vector<std::vector<uint32_t>> ids;
  VEXUS_RETURN_NOT_OK(ParseShardGroupsSection(buf.data() + e.offset, e.len,
                                              num_users, r, /*first=*/true,
                                              &num_groups, &descs, &ids));
  VEXUS_ASSIGN_OR_RETURN(mining::GroupStore store,
                         BuildStoreFromShardIds(num_users, &descs, &ids));
  return SnapshotShard{shard, t.shards.size(), r.user_begin, r.user_end,
                       std::move(store)};
}

namespace internal {

uint64_t SnapshotFsyncCountForTesting() {
  return g_fsync_count.load(std::memory_order_relaxed);
}

}  // namespace internal

}  // namespace vexus::core
