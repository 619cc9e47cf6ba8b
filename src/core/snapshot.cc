#include "core/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/bitset_kernels.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/shard_map.h"

namespace vexus::core {

namespace {

constexpr char kMagic[4] = {'V', 'X', 'S', 'N'};
constexpr char kTrailerMagic[4] = {'V', 'X', 'T', 'R'};
constexpr uint32_t kVersion = 3;
constexpr size_t kHeaderSize = 4 + 4 + 8;  // magic, version, num_users

// Variable trailer: one entry per group section, a postings entry, then a
// fixed tail.
constexpr size_t kSectionEntrySize = 4 * 8 + 4;  // offset, len, range, crc
constexpr size_t kPostingsEntrySize = 2 * 8 + 4;
constexpr size_t kTrailerTailSize = 8 + 4 + 4;  // num_shards, crc, magic

size_t TrailerSize(size_t num_shards) {
  return num_shards * kSectionEntrySize + kPostingsEntrySize +
         kTrailerTailSize;
}

// Group member-block encodings.
constexpr uint8_t kEncodingSparse = 0;  // uvarint deltas, strictly ascending
constexpr uint8_t kEncodingRaw = 1;     // the section's u64 bitset words

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

void AppendWords(std::string* out, const uint64_t* words, size_t n) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  out->append(reinterpret_cast<const char*>(words), n * 8);
#else
  for (size_t w = 0; w < n; ++w) AppendU64(out, words[w]);
#endif
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

  /// Copies `n` LE words into `out`. The raw member-block fast path: one
  /// memcpy at memory bandwidth, which is the whole point of encoding dense
  /// groups as bitset words instead of one int per member.
  bool ReadWordsInto(uint64_t* out, size_t n) {
    if (remaining() / 8 < n) return false;
    if (n == 0) return true;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::memcpy(out, p_, n * 8);
#else
    for (size_t w = 0; w < n; ++w) {
      uint64_t v = 0;
      for (int i = 0; i < 8; ++i) {
        v |= static_cast<uint64_t>(p_[w * 8 + i]) << (8 * i);
      }
      out[w] = v;
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

/// One shard's self-contained group section: every group's descriptors plus
/// its members inside the shard's word range `r`, each block in whichever
/// encoding is smaller (raw blocks span only the shard's words). Descriptors
/// repeat per section on purpose — that is what makes a section loadable
/// without touching any other. At S=1 the range is the whole universe.
void EncodeGroupSection(const mining::GroupStore& groups,
                        const ShardMap::Range& r, std::string* out) {
  AppendU64(out, groups.size());
  const size_t raw_size = r.num_words() * 8;
  std::string sparse;  // reused scratch across groups
  for (mining::GroupId g = 0; g < groups.size(); ++g) {
    const mining::UserGroup& grp = groups.group(g);
    AppendU32(out, static_cast<uint32_t>(grp.description().size()));
    for (const mining::Descriptor& d : grp.description()) {
      AppendU32(out, d.attribute);
      AppendU32(out, d.value);
    }
    const uint64_t* words = grp.members().words().data() + r.word_begin;
    const uint64_t count = bitset_kernels::Count(words, r.num_words());
    AppendU64(out, count);

    // Every delta takes at least one byte, so a block with more members
    // than raw bytes is raw without encoding its deltas. The first delta is
    // the absolute id (its gap from 0).
    sparse.clear();
    if (count <= raw_size) {
      uint64_t prev = 0;
      for (size_t w = 0; w < r.num_words(); ++w) {
        for (uint64_t word = words[w]; word != 0; word &= word - 1) {
          const uint64_t u = (r.word_begin + w) * 64 +
                             static_cast<unsigned>(__builtin_ctzll(word));
          AppendVarint(&sparse, u - prev);
          prev = u;
        }
      }
      if (sparse.size() <= raw_size) {
        AppendU8(out, kEncodingSparse);
        out->append(sparse);
        continue;
      }
    }
    AppendU8(out, kEncodingRaw);
    AppendWords(out, words, r.num_words());
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

std::string EncodeSnapshotFile(const mining::GroupStore& groups,
                               const index::InvertedIndex& index,
                               const ShardMap& shards) {
  std::string payload;
  payload.append(kMagic, 4);
  AppendU32(&payload, kVersion);
  AppendU64(&payload, groups.num_users());

  std::string trailer;
  for (size_t s = 0; s < shards.num_shards(); ++s) {
    const uint64_t offset = payload.size();
    EncodeGroupSection(groups, shards.shard(s), &payload);
    const uint64_t len = payload.size() - offset;
    // Shard 0's CRC starts at byte 0, not at the section: the header fields
    // (magic, version, num_users) would otherwise be the one unprotected
    // spot — a bit flip in num_users could parse into a store with the wrong
    // universe size and only fail much later, far from the corruption.
    const uint32_t crc = s == 0 ? Crc32(payload.data(), offset + len)
                                : Crc32(payload.data() + offset, len);
    AppendU64(&trailer, offset);
    AppendU64(&trailer, len);
    AppendU64(&trailer, shards.shard(s).user_begin);
    AppendU64(&trailer, shards.shard(s).user_end);
    AppendU32(&trailer, crc);
  }

  const uint64_t postings_offset = payload.size();
  EncodePostings(index, &payload);
  const uint64_t postings_len = payload.size() - postings_offset;
  AppendU64(&trailer, postings_offset);
  AppendU64(&trailer, postings_len);
  AppendU32(&trailer, Crc32(payload.data() + postings_offset, postings_len));
  AppendU64(&trailer, shards.num_shards());
  AppendU32(&trailer, Crc32(trailer.data(), trailer.size()));
  trailer.append(kTrailerMagic, 4);
  VEXUS_DCHECK(trailer.size() == TrailerSize(shards.num_shards()));
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
// Header and trailer
// ---------------------------------------------------------------------------

struct Section {
  uint64_t offset = 0, len = 0;
  uint32_t crc = 0;
};

/// A snapshot file in memory whose header and trailer passed validation.
/// Section CRCs are left to the caller, which may need only one section.
struct SnapshotFile {
  std::string buf;
  uint64_t num_users = 0;
  ShardMap shards;
  std::vector<Section> groups;  // one per shard, in shard order
  Section postings;
};

/// Reads `path` and validates the header (magic, version, universe) and the
/// trailer: magic, trailer CRC, exact tiling of the file by the group
/// sections + postings + trailer, and the section ranges matching
/// ShardMap(num_users, S) — the same partition the serving layer computes,
/// so a shard server and the snapshot can never disagree about who owns
/// which users.
Result<SnapshotFile> ReadSnapshotFile(const std::string& path,
                                      const TraceSpan& span) {
  // Simulates an unreadable snapshot file (EIO, NFS server gone).
  VEXUS_FAILPOINT("snapshot.load.read");
  SnapshotFile f;
  VEXUS_ASSIGN_OR_RETURN(f.buf, ReadFileFully(path));
  const std::string& buf = f.buf;
  span.AddCount(buf.size());
  // Simulates bit rot on the read path: the file on disk is fine but the
  // bytes we parse are not. Checksums must catch it.
  if (VEXUS_FAILPOINT_FIRES("snapshot.load.corrupt") && !buf.empty()) {
    f.buf[buf.size() / 2] ^= 0x40;
  }

  if (buf.size() < kHeaderSize) return Truncated();
  if (std::memcmp(buf.data(), kMagic, 4) != 0) {
    return Status::Corruption("bad snapshot magic");
  }
  Cursor hcur(buf.data() + 4, kHeaderSize - 4);
  uint32_t version;
  (void)hcur.ReadU32(&version);
  (void)hcur.ReadU64(&f.num_users);
  if (version != kVersion) {
    return Status::NotSupported("snapshot version " + std::to_string(version) +
                                " (expected " + std::to_string(kVersion) +
                                ")");
  }
  if (f.num_users > (uint64_t{1} << 32)) {
    return Status::Corruption("user universe exceeds 32-bit user ids");
  }

  if (buf.size() < kHeaderSize + TrailerSize(1)) return Truncated();
  if (std::memcmp(buf.data() + buf.size() - 4, kTrailerMagic, 4) != 0) {
    return Status::Corruption("bad snapshot trailer magic");
  }
  Cursor tail(buf.data() + buf.size() - kTrailerTailSize, kTrailerTailSize);
  uint64_t num_shards;
  uint32_t trailer_crc;
  (void)tail.ReadU64(&num_shards);
  (void)tail.ReadU32(&trailer_crc);
  // Bomb guard: each shard costs a trailer entry, so a corrupt count cannot
  // force a giant allocation before the size check below fails.
  if (num_shards == 0 || num_shards > buf.size() / kSectionEntrySize) {
    return Status::Corruption("shard count exceeds file size");
  }
  const size_t trailer_size = TrailerSize(num_shards);
  if (buf.size() < kHeaderSize + trailer_size) return Truncated();
  const char* tstart = buf.data() + buf.size() - trailer_size;
  if (Crc32(tstart, trailer_size - 8) != trailer_crc) {
    return Status::Corruption("trailer checksum mismatch");
  }

  f.shards = ShardMap(f.num_users, num_shards);
  if (f.shards.num_shards() != num_shards) {
    return Status::Corruption("shard count impossible for universe size");
  }
  Cursor cur(tstart, trailer_size - kTrailerTailSize);
  f.groups.resize(num_shards);
  // Sections must tile the file exactly: shard order, postings last. The
  // per-entry length bound stops a huge u64 from wrapping the running sum.
  uint64_t expect = kHeaderSize;
  for (size_t s = 0; s < num_shards; ++s) {
    Section& e = f.groups[s];
    uint64_t user_begin, user_end;
    (void)cur.ReadU64(&e.offset);
    (void)cur.ReadU64(&e.len);
    (void)cur.ReadU64(&user_begin);
    (void)cur.ReadU64(&user_end);
    (void)cur.ReadU32(&e.crc);
    if (e.len < 8 || e.len > buf.size() || e.offset != expect) {
      return Status::Corruption("snapshot sections do not tile the file");
    }
    expect += e.len;
    if (user_begin != f.shards.shard(s).user_begin ||
        user_end != f.shards.shard(s).user_end) {
      return Status::Corruption("shard ranges disagree with the shard map");
    }
  }
  Section& p = f.postings;
  (void)cur.ReadU64(&p.offset);
  (void)cur.ReadU64(&p.len);
  (void)cur.ReadU32(&p.crc);
  if (p.len < 8 || p.len > buf.size() || p.offset != expect ||
      p.offset + p.len + trailer_size != buf.size()) {
    return Status::Corruption("snapshot sections do not tile the file");
  }
  return f;
}

/// Verifies group section `s`'s CRC. Shard 0's covers the header too.
Status CheckGroupSection(const SnapshotFile& f, size_t s) {
  const Section& e = f.groups[s];
  const uint32_t crc = s == 0 ? Crc32(f.buf.data(), e.offset + e.len)
                              : Crc32(f.buf.data() + e.offset, e.len);
  if (crc != e.crc) {
    return Status::Corruption("shard " + std::to_string(s) +
                              " section checksum mismatch");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Group section decoding
// ---------------------------------------------------------------------------

/// One group as its sections decode: descriptors plus the words of the
/// store it lands in (the whole universe's, or one shard's range).
struct DecodedGroup {
  std::vector<mining::Descriptor> desc;
  std::vector<uint64_t> words;
};

Status ReadDescriptors(Cursor* cur, std::vector<mining::Descriptor>* desc) {
  uint32_t desc_len;
  if (!cur->ReadU32(&desc_len)) return Truncated();
  if (static_cast<uint64_t>(desc_len) * 8 > cur->remaining()) {
    return Truncated();
  }
  desc->resize(desc_len);
  for (mining::Descriptor& d : *desc) {
    (void)cur->ReadU32(&d.attribute);
    (void)cur->ReadU32(&d.value);
  }
  return Status::OK();
}

/// Decodes `count` uvarint-delta member ids (the first absolute, then
/// strictly positive gaps), each inside [begin, end), calling emit(id) in
/// ascending order. The loop runs once per member across the whole file, so
/// it works on raw pointers (one bounds check per byte consumed).
template <typename Emit>
Status DecodeSparseBlock(Cursor* cur, uint64_t count, uint64_t begin,
                         uint64_t end, Emit&& emit) {
  if (count == 0) return Status::OK();
  const unsigned char* p = cur->pos();
  const unsigned char* const stop = cur->end();
  // LEB128 with the multi-byte continuation peeled off: deltas between
  // neighbouring members of a non-degenerate group are almost always < 128,
  // so the common case is one load, one test, one OR.
  const auto read_delta = [&p, stop](uint64_t* delta) -> bool {
    if (p == stop) return false;
    uint64_t v = *p++;
    if ((v & 0x80) != 0) {
      v &= 0x7f;
      int shift = 7;
      for (;;) {
        if (p == stop || shift >= 64) return false;
        const uint8_t byte = *p++;
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) break;
        shift += 7;
      }
    }
    *delta = v;
    return true;
  };
  uint64_t id;
  if (!read_delta(&id)) return Truncated();
  if (id < begin || id >= end) {
    return Status::Corruption("member id out of range");
  }
  emit(id);
  for (uint64_t i = 1; i < count; ++i) {
    uint64_t delta;
    if (!read_delta(&delta)) return Truncated();
    if (delta == 0) {
      return Status::Corruption("duplicate member id in group");
    }
    // Tested before the add: a delta near 2^64 would wrap `id` back into
    // the range and break the ascending order the format requires.
    if (delta > end - 1 - id) {
      return Status::Corruption("member id out of range");
    }
    id += delta;
    emit(id);
  }
  cur->AdvanceTo(p);
  return Status::OK();
}

/// Decodes group section `s` — the members of every group inside shard s's
/// range — into `groups`, whose words start at global word `base_word` and
/// span `num_words` (0 and the universe for a full load; the shard's own
/// range for a shard load, so local id = global id − 64·base_word). The
/// first section decoded fixes the group count and descriptors; later ones
/// must agree (their CRCs already passed, so a mismatch means the writer
/// was broken, not the media).
Status DecodeGroupSection(const SnapshotFile& f, size_t s, bool first,
                          size_t base_word, size_t num_words,
                          std::vector<DecodedGroup>* groups) {
  const Section& sec = f.groups[s];
  const ShardMap::Range& r = f.shards.shard(s);
  Cursor cur(f.buf.data() + sec.offset, sec.len);
  uint64_t n;
  if (!cur.ReadU64(&n)) return Truncated();
  if (n > sec.len / 13) {  // ≥ 13 bytes per group
    return Status::Corruption("group count exceeds section size");
  }
  if (first) {
    groups->resize(n);
  } else if (n != groups->size()) {
    return Status::Corruption("shard sections disagree on group count");
  }
  const uint64_t base_user = uint64_t{base_word} * 64;
  const uint64_t begin = r.user_begin;
  const uint64_t end = r.user_end;
  std::vector<mining::Descriptor> desc;
  for (DecodedGroup& g : *groups) {
    VEXUS_RETURN_NOT_OK(ReadDescriptors(&cur, first ? &g.desc : &desc));
    if (first) g.words.assign(num_words, 0);
    if (!first && desc != g.desc) {
      return Status::Corruption("shard sections disagree on group descriptors");
    }
    uint64_t member_count;
    uint8_t encoding;
    if (!cur.ReadU64(&member_count) || !cur.ReadU8(&encoding)) {
      return Truncated();
    }
    if (member_count > end - begin) {
      return Status::Corruption("group claims more members than shard users");
    }
    uint64_t* words = g.words.data();
    if (encoding == kEncodingRaw) {
      // One word-run copy into the group's words at the range's offset.
      if (cur.remaining() / 8 < r.num_words()) return Truncated();
      uint64_t* block = words + (r.word_begin - base_word);
      (void)cur.ReadWordsInto(block, r.num_words());
      if (bitset_kernels::Count(block, r.num_words()) != member_count) {
        return Status::Corruption(
            "raw member block popcount disagrees with member_count");
      }
    } else if (encoding == kEncodingSparse) {
      // Each delta takes at least one byte.
      if (member_count > cur.remaining()) return Truncated();
      VEXUS_RETURN_NOT_OK(DecodeSparseBlock(
          &cur, member_count, begin, end, [words, base_user](uint64_t id) {
            id -= base_user;
            words[id >> 6] |= uint64_t{1} << (id & 63);
          }));
    } else {
      return Status::Corruption("unknown member-block encoding");
    }
  }
  if (cur.remaining() != 0) {
    return Status::Corruption("trailing bytes in groups section");
  }
  return Status::OK();
}

/// Wraps decoded groups into a store over `num_users` users, every group
/// at its decoded slot. A full load (`dedup`) adds through GroupStore::Add:
/// stores never hold duplicate (description, extent) pairs, so a dedup hit
/// means the file repeats a group — ids would shift and the posting lists
/// would dangle. A shard load appends instead: two groups that share a
/// description (BIRCH labels can) may coincide inside one shard's range.
Result<mining::GroupStore> BuildStore(uint64_t num_users,
                                      std::vector<DecodedGroup>* groups,
                                      bool dedup) {
  mining::GroupStore store(num_users);
  for (size_t g = 0; g < groups->size(); ++g) {
    DecodedGroup& d = (*groups)[g];
    Bitset members;
    if (!members.AdoptWords(num_users, std::move(d.words))) {
      return Status::Corruption("raw member block has bits beyond universe");
    }
    mining::UserGroup group(std::move(d.desc), std::move(members));
    if (!dedup) {
      store.Append(std::move(group));
    } else if (store.Add(std::move(group)) != g) {
      return Status::Corruption("duplicate group in snapshot");
    }
  }
  return store;
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

}  // namespace

Status SaveSnapshot(const mining::GroupStore& groups,
                    const index::InvertedIndex& index, const std::string& path,
                    const SnapshotSaveOptions& options, const TraceSpan* span) {
  if (index.num_groups() != groups.size()) {
    return Status::InvalidArgument(
        "index and group store cover different group sets");
  }
  TraceSpan save = span != nullptr ? span->Child("save") : TraceSpan();
  // A universe with fewer bitset words than requested shards clamps.
  const ShardMap shards(groups.num_users(),
                        std::max<size_t>(1, options.num_shards));
  std::string payload = EncodeSnapshotFile(groups, index, shards);
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
  VEXUS_ASSIGN_OR_RETURN(SnapshotFile f, ReadSnapshotFile(path, load));
  // CRC every section before decoding any.
  const size_t num_shards = f.groups.size();
  for (size_t s = 0; s < num_shards; ++s) {
    VEXUS_RETURN_NOT_OK(CheckGroupSection(f, s));
  }
  if (Crc32(f.buf.data() + f.postings.offset, f.postings.len) !=
      f.postings.crc) {
    return Status::Corruption("postings section checksum mismatch");
  }

  std::vector<DecodedGroup> decoded;
  const size_t universe_words = (f.num_users + 63) / 64;
  for (size_t s = 0; s < num_shards; ++s) {
    VEXUS_RETURN_NOT_OK(DecodeGroupSection(f, s, /*first=*/s == 0,
                                           /*base_word=*/0, universe_words,
                                           &decoded));
  }
  const uint64_t num_groups = decoded.size();
  VEXUS_ASSIGN_OR_RETURN(mining::GroupStore store,
                         BuildStore(f.num_users, &decoded, /*dedup=*/true));

  Cursor pcur(f.buf.data() + f.postings.offset, f.postings.len);
  std::vector<std::vector<index::Neighbor>> lists;
  VEXUS_RETURN_NOT_OK(ParsePostings(&pcur, num_groups, &lists));
  if (pcur.remaining() != 0) {
    return Status::Corruption("trailing bytes in postings section");
  }
  return Snapshot{std::move(store),
                  index::InvertedIndex::FromPostings(std::move(lists))};
}

Result<SnapshotShard> LoadSnapshotShard(const std::string& path, size_t shard,
                                        const TraceSpan* span) {
  TraceSpan load = span != nullptr ? span->Child("load_shard") : TraceSpan();
  VEXUS_ASSIGN_OR_RETURN(SnapshotFile f, ReadSnapshotFile(path, load));
  if (shard >= f.groups.size()) {
    return Status::InvalidArgument(
        "shard index " + std::to_string(shard) + " out of range (snapshot has " +
        std::to_string(f.groups.size()) + " shards)");
  }
  // Only this shard's section is checksummed — a flipped bit in another
  // shard's section must not block this shard's cold start (tested).
  VEXUS_RETURN_NOT_OK(CheckGroupSection(f, shard));
  // The store spans only the shard's own words: local id = global id −
  // user_begin, which is word-aligned.
  const ShardMap::Range& r = f.shards.shard(shard);
  std::vector<DecodedGroup> decoded;
  VEXUS_RETURN_NOT_OK(DecodeGroupSection(f, shard, /*first=*/true,
                                         r.word_begin, r.num_words(),
                                         &decoded));
  VEXUS_ASSIGN_OR_RETURN(
      mining::GroupStore store,
      BuildStore(r.num_users(), &decoded, /*dedup=*/false));
  return SnapshotShard{shard, f.groups.size(), r.user_begin, r.user_end,
                       std::move(store)};
}

namespace internal {

uint64_t SnapshotFsyncCountForTesting() {
  return g_fsync_count.load(std::memory_order_relaxed);
}

}  // namespace internal

}  // namespace vexus::core
