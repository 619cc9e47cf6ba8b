#include "core/quality.h"

#include "common/bitset.h"
#include "common/logging.h"

namespace vexus::core {

double Diversity(const mining::GroupStore& store,
                 const std::vector<mining::GroupId>& selection) {
  size_t k = selection.size();
  if (k < 2) return 1.0;
  double sim_sum = 0;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      sim_sum += store.group(selection[i])
                     .members()
                     .Jaccard(store.group(selection[j]).members());
    }
  }
  return 1.0 - sim_sum / (static_cast<double>(k) * (k - 1) / 2.0);
}

double Coverage(const mining::GroupStore& store,
                const std::vector<mining::GroupId>& selection,
                std::optional<mining::GroupId> anchor) {
  if (selection.empty()) return 0.0;
  Bitset covered(store.num_users());
  for (mining::GroupId g : selection) {
    covered |= store.group(g).members();
  }
  if (anchor.has_value()) {
    const Bitset& target = store.group(*anchor).members();
    size_t denom = store.group(*anchor).size();
    if (denom == 0) return 0.0;
    return static_cast<double>(target.IntersectCount(covered)) /
           static_cast<double>(denom);
  }
  if (store.num_users() == 0) return 0.0;
  return static_cast<double>(covered.Count()) /
         static_cast<double>(store.num_users());
}

QualityScore Evaluate(const mining::GroupStore& store,
                      const std::vector<mining::GroupId>& selection,
                      std::optional<mining::GroupId> anchor, double lambda) {
  VEXUS_DCHECK(lambda >= 0 && lambda <= 1);
  QualityScore q;
  q.diversity = Diversity(store, selection);
  q.coverage = Coverage(store, selection, anchor);
  q.objective = lambda * q.coverage + (1.0 - lambda) * q.diversity;
  return q;
}

}  // namespace vexus::core
