#include "index/inverted_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace vexus::index {

namespace {

using mining::GroupId;
using mining::GroupStore;

/// Sorts by similarity desc (ties on group id for determinism) and
/// truncates to the materialized length.
void FinalizeList(std::vector<Neighbor>* list, size_t keep) {
  std::sort(list->begin(), list->end(), [](const Neighbor& a,
                                           const Neighbor& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.group < b.group;
  });
  if (list->size() > keep) list->resize(keep);
  list->shrink_to_fit();
}

}  // namespace

Result<InvertedIndex> InvertedIndex::Build(const GroupStore& store,
                                           const Options& options) {
  if (options.materialization_fraction < 0 ||
      options.materialization_fraction > 1) {
    return Status::InvalidArgument(
        "materialization_fraction must be in [0, 1]");
  }
  InvertedIndex idx;
  const size_t n = store.size();
  idx.postings_.resize(n);
  if (n <= 1) return idx;

  Stopwatch watch;
  size_t keep = std::max(
      options.min_neighbors,
      static_cast<size_t>(
          std::ceil(options.materialization_fraction *
                    static_cast<double>(n - 1))));

  std::atomic<size_t> full_postings{0};

  // User -> groups adjacency as one CSR array: user u's groups are
  // adj[offsets[u], offsets[u + 1]), in ascending group id order. Two
  // passes (count, then fill) instead of one vector per user.
  const size_t num_users = store.num_users();
  std::vector<size_t> offsets(num_users + 1, 0);
  for (GroupId g = 0; g < n; ++g) {
    store.group(g).members().ForEach([&](uint32_t u) { ++offsets[u + 1]; });
  }
  for (size_t u = 0; u < num_users; ++u) offsets[u + 1] += offsets[u];
  std::vector<GroupId> adj(offsets[num_users]);
  {
    std::vector<size_t> next(offsets.begin(), offsets.end() - 1);
    for (GroupId g = 0; g < n; ++g) {
      store.group(g).members().ForEach([&](uint32_t u) { adj[next[u]++] = g; });
    }
  }

  auto build_one = [&](size_t g_idx, std::vector<uint32_t>* counts) {
    GroupId g = static_cast<GroupId>(g_idx);
    const mining::UserGroup& gg = store.group(g);
    std::vector<GroupId> touched;
    // Members are visited in ascending user order, so touched-order — and
    // therefore the posting list — is a pure function of the store.
    gg.members().ForEach([&](uint32_t u) {
      for (size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
        const GroupId h = adj[i];
        if (h == g) continue;
        if ((*counts)[h]++ == 0) touched.push_back(h);
      }
    });
    std::vector<Neighbor>& list = idx.postings_[g];
    list.reserve(touched.size());
    size_t gsize = gg.size();
    for (GroupId h : touched) {
      uint32_t inter = (*counts)[h];
      (*counts)[h] = 0;  // reset for reuse
      size_t uni = gsize + store.group(h).size() - inter;
      float sim = uni == 0 ? 0.0f
                           : static_cast<float>(inter) /
                                 static_cast<float>(uni);
      list.push_back(Neighbor{h, sim});
    }
    full_postings += list.size();
    FinalizeList(&list, keep);
  };

  if (options.num_threads == 1) {
    std::vector<uint32_t> counts(n, 0);
    for (size_t g = 0; g < n; ++g) build_one(g, &counts);
  } else {
    // Split over ParallelForChunked with one counts buffer per chunk.
    // Chunk sizing caps the number of chunks near the worker count so the
    // n-sized buffers stay bounded; each posting list is written by
    // exactly one chunk, so the parallel result is byte-identical to the
    // serial one (tested in inverted_index_test).
    ThreadPool pool(options.num_threads);
    size_t workers = pool.num_threads() + 1;  // the caller participates
    size_t chunk_size = (n + workers - 1) / workers;
    size_t num_chunks = (n + chunk_size - 1) / chunk_size;
    std::vector<std::vector<uint32_t>> buffers(
        num_chunks, std::vector<uint32_t>(n, 0));
    pool.ParallelForChunked(n, chunk_size,
                            [&](size_t chunk, size_t begin, size_t end) {
                              for (size_t g = begin; g < end; ++g) {
                                build_one(g, &buffers[chunk]);
                              }
                            });
  }

  idx.stats_.elapsed_ms = watch.ElapsedMillis();
  idx.stats_.full_postings = full_postings;
  for (const auto& list : idx.postings_) idx.stats_.postings += list.size();
  idx.stats_.memory_bytes = idx.MemoryBytes();
  return idx;
}

InvertedIndex InvertedIndex::FromPostings(
    std::vector<std::vector<Neighbor>> lists) {
  InvertedIndex idx;
  idx.postings_ = std::move(lists);
  for (const auto& list : idx.postings_) {
    idx.stats_.postings += list.size();
  }
  idx.stats_.full_postings = idx.stats_.postings;
  idx.stats_.memory_bytes = idx.MemoryBytes();
  return idx;
}

const std::vector<Neighbor>& InvertedIndex::Neighbors(
    mining::GroupId g) const {
  VEXUS_DCHECK(g < postings_.size());
  return postings_[g];
}

std::vector<Neighbor> InvertedIndex::TopK(mining::GroupId g, size_t k) const {
  const auto& list = Neighbors(g);
  std::vector<Neighbor> out(list.begin(),
                            list.begin() + std::min(k, list.size()));
  return out;
}

size_t InvertedIndex::MemoryBytes() const {
  size_t bytes = postings_.capacity() * sizeof(std::vector<Neighbor>);
  for (const auto& list : postings_) {
    bytes += list.capacity() * sizeof(Neighbor);
  }
  return bytes;
}

}  // namespace vexus::index
