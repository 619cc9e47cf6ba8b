// VexusEngine — the system facade wiring Fig. 1's offline pipeline (group
// discovery → index generation) to the interactive components. Typical use:
//
//   auto dataset = data::BookCrossingGenerator::Generate({});
//   VEXUS_ASSIGN_OR_RETURN(auto engine,
//                          core::VexusEngine::Preprocess(std::move(dataset),
//                                                        {}, {}));
//   auto session = engine.CreateSession({});
//   session->Start();
//   session->SelectGroup(...);
#pragma once

#include <memory>
#include <string>

#include "common/result.h"
#include "common/trace.h"
#include "core/feedback.h"
#include "core/screen_memo.h"
#include "core/session.h"
#include "data/dataset.h"
#include "index/group_graph.h"
#include "index/inverted_index.h"
#include "mining/discovery.h"

namespace vexus::core {

class VexusEngine {
 public:
  /// Runs the full offline pipeline: group discovery over the dataset, then
  /// inverted-index construction, then the overlap graph. Takes ownership of
  /// the dataset (sessions reference it). `span`, when non-null, gets
  /// "discover" / "index" / "graph" children (counts: groups, postings).
  static Result<VexusEngine> Preprocess(
      data::Dataset dataset,
      const mining::DiscoveryOptions& discovery_options = {},
      const index::InvertedIndex::Options& index_options = {},
      const TraceSpan* span = nullptr);

  /// Restores an engine from a snapshot written by core::SaveSnapshot,
  /// skipping discovery and index construction entirely — the serving
  /// layer's cold-start path (load, then construct the service). The
  /// dataset must be the one the snapshot was preprocessed from: the user
  /// universe size is checked, and every stored description is validated
  /// against the dataset schema (FailedPrecondition on mismatch). The
  /// descriptor catalog is rebuilt from the dataset — it is derived data,
  /// linear in |U|, and not worth persisting. `span`, when non-null, gets a
  /// "load" child from LoadSnapshot plus a "graph" child for the
  /// overlap-graph rebuild.
  static Result<VexusEngine> FromSnapshot(data::Dataset dataset,
                                          const std::string& path,
                                          const TraceSpan* span = nullptr);

  VexusEngine(VexusEngine&&) = default;
  VexusEngine& operator=(VexusEngine&&) = default;

  const data::Dataset& dataset() const { return *dataset_; }
  const mining::GroupStore& groups() const { return discovery_->groups; }
  const mining::DescriptorCatalog& catalog() const {
    return discovery_->catalog;
  }
  const index::InvertedIndex& index() const { return *index_; }
  const index::GroupGraph& graph() const { return *graph_; }
  const mining::DiscoveryResult& discovery() const { return *discovery_; }
  /// The token space every session's feedback is over (one per engine).
  const TokenSpace& tokens() const { return *tokens_; }
  /// Screens by click path, filled by the sessions' runs (see
  /// core/screen_memo.h); empty right after construction.
  const ScreenMemo& screens() const { return *screens_; }

  /// Id of the root group (empty description, all users) if discovery
  /// emitted one; used as a neutral exploration start.
  std::optional<mining::GroupId> RootGroup() const;

  /// A fresh interactive session over the preprocessed structures, sharing
  /// the engine's token space and screen memo. The engine must
  /// outlive its sessions.
  std::unique_ptr<ExplorationSession> CreateSession(
      SessionOptions options = {}) const;

  /// Pre-processing summary: groups, index postings, graph shape, timings.
  std::string Summary() const;

 private:
  VexusEngine() = default;

  /// Builds the per-engine session state over `dataset_`: the token space
  /// and an empty screen memo.
  void InitSessionState();

  std::unique_ptr<data::Dataset> dataset_;
  std::unique_ptr<mining::DiscoveryResult> discovery_;
  std::unique_ptr<index::InvertedIndex> index_;
  std::unique_ptr<index::GroupGraph> graph_;
  // Behind pointers so a moved engine keeps the addresses its sessions hold.
  std::unique_ptr<TokenSpace> tokens_;
  std::unique_ptr<ScreenMemo> screens_;
};

}  // namespace vexus::core
