// Backend-side batched trial-coverage partials for the multi-box
// scatter-gather greedy (DESIGN.md §16).
//
// A shard backend holds a *slice* store (LoadSnapshotShard): every group is
// a bitset over the shard's own users only, local id = global id −
// user_begin. Because the range is word-aligned, a slice group's words are
// exactly the full group's words inside the range, so evaluating a trial
// over the slice yields the full store's count restricted to this shard's
// range:
//
//     |cand ∩ anchor ∩ ¬rest(pos)|_slice  ==  partial(shard)
//
// and the partials of a ShardMap partition sum to the whole-universe count.
// The coordinator folds per-shard integers from different processes in
// shard order and feeds the sum to SwapObjective::TrialFromCovered, which
// reproduces the single-process objective doubles — and selections — bit
// for bit.
//
// One EvalCoveragePartials call scores a whole candidate-window batch: it
// rebuilds the prefix/suffix/rest tables once (O(k·U/64)) and then pays one
// bitset pass per trial, mirroring the per-pass amortization of the
// in-process SwapObjective. The function is stateless across calls — the
// selection changes at most once per greedy pass, and a pass is exactly one
// eval_partial request per shard.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "mining/group.h"

namespace vexus::core {

struct PartialEvalInput {
  /// Anchor group id; absent on the initial screen (universe coverage).
  std::optional<uint32_t> anchor;
  /// Current selection as group ids in slot order — rest(pos) is the
  /// anchor-masked union of these minus slot pos.
  std::vector<uint32_t> selection;
  /// Flat (candidate group id, slot) pairs: [c0, p0, c1, p1, ...].
  std::vector<uint32_t> trials;
};

/// Scores every trial against the (slice) store: out[i] = this shard's
/// newly-covered count for trial i. Fails with InvalidArgument on
/// out-of-range group ids, slots >= |selection|, an odd-length or empty
/// trial list, or an empty selection (a trial needs a slot to displace).
Result<std::vector<uint32_t>> EvalCoveragePartials(
    const mining::GroupStore& store, const PartialEvalInput& in);

}  // namespace vexus::core
