// E6 — group-space explosion and closed-set pruning (paper §I):
//
//   "The number of possible groups is potentially very large as it is
//    exponential in the number of users' demographics and actions … with
//    only four demographic attributes and five values for each, the number
//    of user groups will be in the order of 10^6."
//
// Protocol: sweep #attributes (5 values each); report the combinatorial
// bound Π(v_i + 1) − 1 the paper's estimate refers to, the number of
// *frequent conjunctions* (Apriori), and the number of *closed* groups
// (LCM — what VEXUS materializes). Shape to reproduce: the bound explodes
// exponentially (hitting ~10^6 at 4 attributes × 5 values, the paper's
// example: 6^4 ≈ 1.3·10^3 descriptions but group space over value subsets
// ~ 10^6); closed groups grow far slower.

#include <cmath>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "mining/apriori.h"
#include "mining/descriptor_catalog.h"
#include "mining/lcm.h"

using namespace vexus;
using namespace vexus::bench;

namespace {

data::Dataset RandomWorld(size_t n_users, size_t n_attrs, size_t n_values,
                          uint64_t seed) {
  data::Dataset ds;
  Rng rng(seed);
  for (size_t a = 0; a < n_attrs; ++a) {
    ds.schema().AddCategorical(StrCat("a", a));
  }
  for (size_t u = 0; u < n_users; ++u) {
    data::UserId uid = ds.users().AddUser(StrCat("u", u));
    for (size_t a = 0; a < n_attrs; ++a) {
      ds.users().SetValueByName(
          uid, static_cast<data::AttributeId>(a),
          StrCat("v", rng.UniformU32(static_cast<uint32_t>(n_values))));
    }
  }
  return ds;
}

}  // namespace

int main() {
  Banner("E6 bench_group_enumeration",
         "group space is exponential in attributes (≈10^6 at 4 attrs × 5 "
         "values); closed mining keeps it tractable");

  const size_t kUsers = 2000;
  const size_t kValues = 5;
  const size_t kMinSupport = 20;  // 1%

  PrintRow({"attrs", "naive_bound", "apriori_freq", "lcm_closed",
            "lcm_ms", "closed/freq"});
  for (size_t attrs : {1u, 2u, 3u, 4u, 5u, 6u}) {
    data::Dataset ds = RandomWorld(kUsers, attrs, kValues, attrs * 17);
    auto cat = mining::DescriptorCatalog::Build(ds);

    // The paper's "number of user groups": any set of users sharing >= 1
    // descriptor — bounded by the subsets of the descriptor space. With v
    // values per attribute and conjunctive descriptions, the candidate
    // description space is (v+1)^attrs − 1; the *group* space over value
    // subsets is 2^(v·attrs) in the worst case. We report the former bound
    // (the paper's 10^6 figure at 4×5 corresponds to subsets of the 20
    // descriptors: 2^20 ≈ 10^6).
    double naive = std::pow(2.0, static_cast<double>(attrs * kValues));

    mining::AprioriMiner::Config acfg;
    acfg.min_support = kMinSupport;
    acfg.max_description = attrs;
    auto astats = mining::AprioriMiner(&cat, acfg).Mine(nullptr);

    mining::GroupStore store(kUsers);
    mining::LcmMiner::Config lcfg;
    lcfg.min_support = kMinSupport;
    lcfg.max_description = attrs;
    lcfg.emit_root = false;
    Stopwatch watch;
    auto lstats = mining::LcmMiner(&cat, lcfg).Mine(&store);
    double lcm_ms = watch.ElapsedMillis();

    PrintRow({FmtInt(attrs), Fmt(naive, 0), FmtInt(astats.frequent_itemsets),
              FmtInt(lstats.groups_emitted), Fmt(lcm_ms, 1),
              Fmt(astats.frequent_itemsets > 0
                      ? static_cast<double>(lstats.groups_emitted) /
                            static_cast<double>(astats.frequent_itemsets)
                      : 1.0)});
  }
  // Closedness prunes when attributes carry *functional dependencies* —
  // the zip→city→state hierarchies ubiquitous in demographic data. Here:
  // a fine attribute (20 values), a coarse one determined by it (5 values),
  // plus an independent one. Every frequent set containing fine=v but not
  // coarse=f(v) shares its extent with the closed set that adds it.
  std::printf("\n[hierarchical data: fine -> coarse functional dependency]\n");
  PrintRow({"min_supp", "apriori_freq", "lcm_closed", "closed/freq"});
  data::Dataset bx;
  {
    Rng hrng(99);
    auto fine = bx.schema().AddCategorical("city");
    auto coarse = bx.schema().AddCategorical("region");
    auto indep = bx.schema().AddCategorical("occupation");
    for (size_t u = 0; u < 5000; ++u) {
      data::UserId uid = bx.users().AddUser(StrCat("u", u));
      uint32_t c = hrng.UniformU32(20);
      bx.users().SetValueByName(uid, fine, StrCat("city", c));
      bx.users().SetValueByName(uid, coarse,
                                StrCat("region", c / 4));
      bx.users().SetValueByName(
          uid, indep, StrCat("occ", hrng.UniformU32(6)));
    }
  }
  auto bx_cat = mining::DescriptorCatalog::Build(bx);
  for (size_t support : {250u, 100u, 50u, 25u}) {
    mining::AprioriMiner::Config acfg;
    acfg.min_support = support;
    acfg.max_description = 4;
    auto astats = mining::AprioriMiner(&bx_cat, acfg).Mine(nullptr);
    mining::GroupStore store(bx.num_users());
    mining::LcmMiner::Config lcfg;
    lcfg.min_support = support;
    lcfg.max_description = 4;
    lcfg.emit_root = false;
    auto lstats = mining::LcmMiner(&bx_cat, lcfg).Mine(&store);
    PrintRow({FmtInt(support), FmtInt(astats.frequent_itemsets),
              FmtInt(lstats.groups_emitted),
              Fmt(static_cast<double>(lstats.groups_emitted) /
                  static_cast<double>(
                      std::max<size_t>(1, astats.frequent_itemsets)))});
  }

  std::printf(
      "\nshape check: naive_bound explodes exponentially (2^20 ≈ 10^6 at 4 "
      "attrs × 5 values — the paper's example); closed groups stay orders "
      "of magnitude smaller, and closure prunes further on correlated "
      "data.\n");
  return 0;
}
