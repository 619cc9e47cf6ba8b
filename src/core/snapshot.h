// Snapshot persistence for the offline pre-processing outputs.
//
// Fig. 1 splits VEXUS into an offline pipeline (group discovery + index
// generation) and the interactive modules. This file makes the split real
// across process restarts: the discovered GroupStore and the materialized
// InvertedIndex serialize to one versioned binary file, so a deployment
// mines once and serves many exploration sessions. At the paper's
// BOOKCROSSING scale (278,858 users) cold start must be seconds, not
// minutes — which is why members are stored as compact blocks instead of
// one u32 per member per group, and why load validates checksums before
// trusting a single length field.
//
// Format (version 3, little-endian throughout). The user universe is split
// into S word-aligned shard ranges (common/shard_map.h); S = 1 is one range
// over every user.
//
//   header   magic "VXSN" | u32 version=3 | u64 num_users        (16 bytes)
//   S GROUP sections, one per shard range, in shard order
//     u64 num_groups
//     per group: u32 desc_len, desc_len × (u32 attr, u32 value),
//                u64 member_count (members inside the range), u8 encoding,
//                encoding 0 (sparse):  member_count × uvarint deltas
//                                      (first = id₀, then idᵢ − idᵢ₋₁;
//                                      strictly ascending, so deltas ≥ 1)
//                encoding 1 (raw):     the range's u64 bitset words
//     The writer picks per block whichever encoding is smaller: dense
//     groups (≳ 1/8 of the range) become raw words loaded with one memcpy;
//     sparse groups become varint deltas (~1–2 bytes/member). Descriptors
//     repeat in every section, so each section loads on its own.
//   POSTINGS section
//     u64 num_lists (== num_groups)
//     per list: u32 len, len × (u32 group, f32 similarity)
//   trailer (36·S + 36 bytes at EOF; 72 at S = 1)
//     S × (u64 offset | u64 len | u64 user_begin | u64 user_end |
//          u32 crc)  — section 0's CRC-32C covers bytes [0, offset + len):
//                      the header rides along so a flipped num_users bit is
//                      caught here, not by a far-away range check; later
//                      sections cover their own bytes
//     u64 postings_offset | u64 postings_len | u32 postings_crc |
//     u64 num_shards | u32 trailer_crc (CRC-32C of the trailer before it) |
//     magic "VXTR"
//
// Both loaders validate the header and trailer first: the version, that the
// sections tile the file exactly (so appended garbage or a truncated tail
// fails before parsing), and that the section ranges equal
// ShardMap(num_users, S). LoadSnapshot then checks every section's CRC-32C
// (common/crc32.h) and decodes every group section into one store — shard
// member sets are disjoint, so they fold back into exactly the store that
// was saved. LoadSnapshotShard checks and decodes only its own section,
// into a store over that shard's users alone, so a flipped bit in one
// shard's section leaves every other shard loadable.
// Any other version word, including the retired formats 1 and 2, is
// NotSupported.
//
// Durability: SaveSnapshot writes path + ".tmp", fsyncs the tmp file,
// renames it over `path`, then fsyncs the parent directory — so a crash at
// any point leaves either the complete old snapshot or the complete new one
// at `path`, never a truncated file that std::rename made visible.
//
// Corruption (truncation, bad magic, checksum mismatch, duplicate member
// ids, out-of-range references, trailing bytes) is detected on load and
// reported as Status::Corruption.
#pragma once

#include <string>

#include "common/result.h"
#include "common/trace.h"
#include "index/inverted_index.h"
#include "mining/group.h"

namespace vexus::core {

struct Snapshot {
  mining::GroupStore groups;
  index::InvertedIndex index;
};

struct SnapshotSaveOptions {
  /// fsync the tmp file before the rename and the parent directory after it
  /// (the crash-durability protocol). Tests may disable to avoid hammering
  /// slow CI disks; production callers should not.
  bool sync = true;
  /// Horizontal shard count over the user universe: one independently
  /// checksummed group section per shard (see the format comment above).
  /// A universe with fewer bitset words than shards clamps.
  size_t num_shards = 1;
};

/// One shard's slice of a snapshot, loaded independently of the others.
struct SnapshotShard {
  size_t shard = 0;
  size_t num_shards = 1;
  /// The shard's user range [user_begin, user_end) — word-aligned, matching
  /// ShardMap(num_users, num_shards).shard(shard).
  uint32_t user_begin = 0;
  uint32_t user_end = 0;
  /// Groups over the shard's own users only: the store's universe is
  /// [0, user_end − user_begin) and a member's local id is its global id
  /// minus user_begin. Every group keeps its global id (no deduplication),
  /// and descriptors are complete (every section carries them).
  mining::GroupStore groups;
};

/// Serializes the pre-processing outputs to `path` atomically and durably
/// (tmp file + fsync + rename + directory fsync). IOError on filesystem
/// failure. `span`, when non-null, gets a "save" child span whose count is
/// the byte size written.
Status SaveSnapshot(const mining::GroupStore& groups,
                    const index::InvertedIndex& index, const std::string& path,
                    const SnapshotSaveOptions& options = {},
                    const TraceSpan* span = nullptr);

/// Loads a snapshot written by SaveSnapshot, every section. Corruption on
/// malformed input, NotSupported on any other format version. `span`, when
/// non-null, gets a "load" child span whose count is the byte size read.
Result<Snapshot> LoadSnapshot(const std::string& path,
                              const TraceSpan* span = nullptr);

/// Loads a single shard's group section, verifying only that section's CRC
/// (plus the trailer's) — corruption elsewhere in the file does not block
/// this shard's cold start. A single-section snapshot is shard 0 of 1 (the
/// whole store). Corruption / NotSupported as LoadSnapshot, InvalidArgument
/// when the shard index is out of range.
Result<SnapshotShard> LoadSnapshotShard(const std::string& path, size_t shard,
                                        const TraceSpan* span = nullptr);

namespace internal {

/// Number of fsync(2) calls SaveSnapshot has issued (tmp files + parent
/// directories) since process start — lets the durability regression test
/// assert the crash protocol actually runs, which a pure round-trip test
/// cannot observe.
uint64_t SnapshotFsyncCountForTesting();

}  // namespace internal

}  // namespace vexus::core
