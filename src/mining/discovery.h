// Group discovery facade — the "User Group Discovery" pre-processing box of
// Fig. 1. The paper: "VEXUS is independent of this process. For user
// datasets, different group discovery algorithms such as LCM and α-MOMRI can
// be used. In case of user data streams, STREAMMINING and BIRCH can be
// employed." This facade exposes all four behind one entry point and
// normalizes their output to a GroupStore + DescriptorCatalog.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "mining/birch.h"
#include "mining/descriptor_catalog.h"
#include "mining/group.h"
#include "mining/lcm.h"
#include "mining/momri.h"
#include "mining/stream_mining.h"

namespace vexus::mining {

enum class DiscoveryAlgorithm {
  kLcm,     // closed frequent groups (default, dataset mode)
  kMomri,   // α-multi-objective over LCM candidates
  kStream,  // lossy-counting itemsets over the user stream
  kBirch,   // CF-tree clustering over demographic feature vectors
};

struct DiscoveryOptions {
  DiscoveryAlgorithm algorithm = DiscoveryAlgorithm::kLcm;
  /// Support threshold as a fraction of |U| (min 1 user).
  double min_support_fraction = 0.02;
  /// Max conjuncts in a group description.
  size_t max_description = 3;
  /// Emission cap.
  size_t max_groups = 200000;
  /// Attributes to group over (names; empty = all).
  std::vector<std::string> attributes;
  /// Keep the all-users root group as an exploration start point.
  bool emit_root = true;
  /// Worker threads for the LCM/MOMRI candidate expansion (1 = serial,
  /// 0 = hardware concurrency). The mined GroupStore is byte-identical to
  /// the serial run — branches fold deterministically (see mining/lcm.h).
  size_t num_threads = 1;

  // BIRCH parameters.
  size_t birch_clusters = 20;
  double birch_threshold = 1.5;
  size_t birch_branching = 8;
  /// Cluster labels: attribute=value conjuncts whose within-cluster purity
  /// exceeds this fraction.
  double birch_label_purity = 0.6;

  // Stream parameters.
  double stream_epsilon = 0.002;

  // MOMRI parameters.
  size_t momri_k = 5;
  double momri_alpha = 0.05;
};

struct DiscoveryResult {
  GroupStore groups;
  DescriptorCatalog catalog;
  double elapsed_ms = 0;
  /// Algorithm-specific statistics (whichever ran).
  LcmMiner::Stats lcm_stats;
  BirchTree::Stats birch_stats;
  StreamMiner::Stats stream_stats;
  size_t momri_frontier = 0;

  DiscoveryResult(GroupStore g, DescriptorCatalog c)
      : groups(std::move(g)), catalog(std::move(c)) {}
};

/// Runs offline group discovery on a dataset. Fails on empty datasets or
/// unknown attribute names.
Result<DiscoveryResult> DiscoverGroups(const data::Dataset& dataset,
                                       const DiscoveryOptions& options);

/// Builds one-hot + standardized-numeric feature vectors for BIRCH / LDA.
/// Categorical attributes with more than `max_onehot` values are skipped.
/// Returns the feature matrix row-per-user and fills `feature_names`.
std::vector<std::vector<double>> BuildFeatureVectors(
    const data::Dataset& dataset, std::vector<std::string>* feature_names,
    size_t max_onehot = 64);

/// Labels a member set with its high-purity attribute=value conjuncts —
/// used to give BIRCH clusters human-readable descriptions like the paper's
/// "engineers in MA who work in NextWorth".
std::vector<Descriptor> LabelCluster(const data::Dataset& dataset,
                                     const Bitset& members, double min_purity);

}  // namespace vexus::mining
