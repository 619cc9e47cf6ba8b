#include "core/engine.h"

#include <sstream>

#include "common/string_util.h"
#include "core/snapshot.h"

namespace vexus::core {

Result<VexusEngine> VexusEngine::Preprocess(
    data::Dataset dataset, const mining::DiscoveryOptions& discovery_options,
    const index::InvertedIndex::Options& index_options,
    const TraceSpan* span) {
  VEXUS_RETURN_NOT_OK(dataset.Validate().WithContext("dataset validation"));

  VexusEngine engine;
  engine.dataset_ =
      std::make_unique<data::Dataset>(std::move(dataset));

  {
    TraceSpan discover =
        span != nullptr ? span->Child("discover") : TraceSpan();
    VEXUS_ASSIGN_OR_RETURN(
        mining::DiscoveryResult discovery,
        mining::DiscoverGroups(*engine.dataset_, discovery_options));
    if (discovery.groups.size() == 0) {
      return Status::FailedPrecondition(
          "group discovery produced no groups; lower min_support_fraction");
    }
    discover.AddCount(discovery.groups.size());
    engine.discovery_ =
        std::make_unique<mining::DiscoveryResult>(std::move(discovery));
  }

  {
    TraceSpan index = span != nullptr ? span->Child("index") : TraceSpan();
    VEXUS_ASSIGN_OR_RETURN(
        index::InvertedIndex idx,
        index::InvertedIndex::Build(engine.discovery_->groups, index_options));
    index.AddCount(idx.build_stats().postings);
    engine.index_ = std::make_unique<index::InvertedIndex>(std::move(idx));
  }

  engine.InitSessionState();
  return engine;
}

Result<VexusEngine> VexusEngine::FromSnapshot(data::Dataset dataset,
                                              const std::string& path,
                                              const TraceSpan* span) {
  VEXUS_RETURN_NOT_OK(dataset.Validate().WithContext("dataset validation"));

  VEXUS_ASSIGN_OR_RETURN(Snapshot snap, LoadSnapshot(path, span));
  if (snap.groups.num_users() != dataset.num_users()) {
    return Status::FailedPrecondition(
        "snapshot user universe does not match the dataset: snapshot has " +
        std::to_string(snap.groups.num_users()) + " users, dataset has " +
        std::to_string(dataset.num_users()));
  }
  // The snapshot's structural integrity is already checksum-verified; what
  // remains is cross-validation against *this* dataset — a snapshot from a
  // different schema would otherwise produce descriptions that index out of
  // range when rendered.
  const data::Schema& schema = dataset.schema();
  for (mining::GroupId g = 0; g < snap.groups.size(); ++g) {
    for (const mining::Descriptor& d : snap.groups.group(g).description()) {
      if (d.attribute >= schema.num_attributes()) {
        return Status::FailedPrecondition(
            "snapshot description references attribute " +
            std::to_string(d.attribute) + " but the dataset schema has " +
            std::to_string(schema.num_attributes()) + " attributes");
      }
      const data::Attribute& attr = schema.attribute(d.attribute);
      if (attr.kind() != data::AttributeKind::kNumeric &&
          d.value >= attr.values().size()) {
        return Status::FailedPrecondition(
            "snapshot description references value " +
            std::to_string(d.value) + " of attribute '" + attr.name() +
            "' which has only " + std::to_string(attr.values().size()) +
            " values");
      }
    }
  }

  VexusEngine engine;
  engine.dataset_ = std::make_unique<data::Dataset>(std::move(dataset));

  // The catalog is derived data (attribute=value bitmaps over the dataset);
  // rebuilding it is linear and keeps the snapshot format independent of
  // catalog internals.
  mining::DescriptorCatalog catalog =
      mining::DescriptorCatalog::Build(*engine.dataset_, /*attributes=*/{},
                                       /*min_count=*/1);
  engine.discovery_ = std::make_unique<mining::DiscoveryResult>(
      std::move(snap.groups), std::move(catalog));
  engine.index_ =
      std::make_unique<index::InvertedIndex>(std::move(snap.index));

  engine.InitSessionState();
  return engine;
}

void VexusEngine::InitSessionState() {
  tokens_ = std::make_unique<TokenSpace>(*dataset_);
  screens_ = std::make_unique<ScreenMemo>();
}

std::optional<mining::GroupId> VexusEngine::RootGroup() const {
  const mining::GroupStore& store = discovery_->groups;
  for (mining::GroupId g = 0; g < store.size(); ++g) {
    if (store.group(g).description().empty() &&
        store.group(g).size() == store.num_users()) {
      return g;
    }
  }
  return std::nullopt;
}

std::unique_ptr<ExplorationSession> VexusEngine::CreateSession(
    SessionOptions options) const {
  return std::make_unique<ExplorationSession>(
      dataset_.get(), &discovery_->groups, index_.get(), tokens_.get(),
      screens_.get(), options);
}

std::string VexusEngine::Summary() const {
  std::ostringstream os;
  os << "VEXUS[" << dataset_->Summary() << "]\n"
     << "  groups: " << WithThousands(discovery_->groups.size())
     << " (discovery " << FormatDouble(discovery_->elapsed_ms, 1) << " ms)\n"
     << "  index: " << WithThousands(index_->build_stats().postings)
     << " postings, " << WithThousands(index_->build_stats().memory_bytes)
     << " bytes (build " << FormatDouble(index_->build_stats().elapsed_ms, 1)
     << " ms)";
  return os.str();
}

}  // namespace vexus::core
