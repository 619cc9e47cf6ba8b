#include "core/partial_eval.h"

#include <string>

#include "common/bitset.h"

namespace vexus::core {

Result<std::vector<uint32_t>> EvalCoveragePartials(
    const mining::GroupStore& store, const PartialEvalInput& in) {
  const size_t k = in.selection.size();
  if (k == 0) {
    return Status::InvalidArgument("eval_partial requires a selection");
  }
  if (in.trials.empty() || in.trials.size() % 2 != 0) {
    return Status::InvalidArgument(
        "trials must be a non-empty even-length (candidate, slot) list");
  }
  auto check_gid = [&](uint32_t gid, const char* what) -> Status {
    if (gid >= store.size()) {
      return Status::InvalidArgument(std::string(what) + " group id " +
                                     std::to_string(gid) +
                                     " out of range (store holds " +
                                     std::to_string(store.size()) + ")");
    }
    return Status::OK();
  };
  if (in.anchor.has_value()) {
    VEXUS_RETURN_NOT_OK(check_gid(*in.anchor, "anchor"));
  }
  for (uint32_t gid : in.selection) {
    VEXUS_RETURN_NOT_OK(check_gid(gid, "selection"));
  }
  const size_t num_trials = in.trials.size() / 2;
  for (size_t t = 0; t < num_trials; ++t) {
    VEXUS_RETURN_NOT_OK(check_gid(in.trials[2 * t], "trial candidate"));
    if (in.trials[2 * t + 1] >= k) {
      return Status::InvalidArgument(
          "trial slot " + std::to_string(in.trials[2 * t + 1]) +
          " out of range (selection holds " + std::to_string(k) + ")");
    }
  }

  const size_t n_users = store.num_users();
  const bool anchored = in.anchor.has_value();
  const Bitset* anchor_bits =
      anchored ? &store.group(*in.anchor).members() : nullptr;

  // Prefix/suffix union tables → rest(pos), exactly the SwapObjective
  // rebuild (greedy_eval.cc) so the slice integers line up with the
  // in-process shard partials.
  std::vector<Bitset> prefix(k + 1), suffix(k + 1), rest(k);
  prefix[0].Resize(n_users);
  prefix[0].ClearAll();
  suffix[k].Resize(n_users);
  suffix[k].ClearAll();
  for (size_t i = 0; i < k; ++i) {
    prefix[i + 1].AssignUnion(prefix[i],
                              store.group(in.selection[i]).members());
  }
  for (size_t i = k; i-- > 0;) {
    suffix[i].AssignUnion(suffix[i + 1],
                          store.group(in.selection[i]).members());
  }
  for (size_t pos = 0; pos < k; ++pos) {
    if (anchored) {
      rest[pos].AssignUnionMaskedCount(prefix[pos], suffix[pos + 1],
                                       *anchor_bits);
    } else {
      rest[pos].AssignUnionCount(prefix[pos], suffix[pos + 1]);
    }
  }

  std::vector<uint32_t> out(num_trials);
  for (size_t t = 0; t < num_trials; ++t) {
    const Bitset& cand = store.group(in.trials[2 * t]).members();
    const Bitset& r = rest[in.trials[2 * t + 1]];
    const size_t newly =
        anchored ? cand.IntersectCountAndNot(*anchor_bits, r)
                 : cand.CountAndNot(r);
    out[t] = static_cast<uint32_t>(newly);
  }
  return out;
}

}  // namespace vexus::core
