// E7 — offline pre-processing at the paper's dataset scale (paper §I):
//
//   "BOOKCROSSING, a book rating dataset, contains one million ratings of
//    278,858 users for 271,379 books."
//
// Protocol: sweep synthetic BOOKCROSSING up to the full paper scale and
// time the offline pipeline stages of Fig. 1 — generation (stand-in for
// ETL ingest), group discovery (LCM) and inverted-index construction.
// Shape to reproduce: the whole offline pass is minutes at most on one core
// (the paper runs it offline), and stage costs grow near-linearly in |A|.

#include "bench_util.h"
#include "common/stopwatch.h"
#include "index/inverted_index.h"

using namespace vexus;
using namespace vexus::bench;

int main(int argc, char** argv) {
  Banner("E7 bench_preprocessing",
         "offline pipeline handles the paper-scale BOOKCROSSING (278,858 "
         "users / 271,379 books / 1M ratings)");

  // Pass --full to run the exact paper scale; default sweep keeps the
  // harness fast for CI-style runs.
  bool full = argc > 1 && std::string(argv[1]) == "--full";

  struct Scale {
    uint32_t users, books, ratings;
  };
  std::vector<Scale> scales = {{10000, 10000, 40000},
                               {40000, 40000, 150000},
                               {100000, 100000, 400000},
                               {278858, 271379, 1000000}};
  if (!full) scales.pop_back();

  PrintRow({"users", "ratings", "gen_ms", "discover_ms", "groups",
            "index_ms", "postings", "total_ms"},
           12);
  for (const Scale& s : scales) {
    data::BookCrossingGenerator::Config cfg;
    cfg.num_users = s.users;
    cfg.num_books = s.books;
    cfg.num_ratings = s.ratings;

    Stopwatch total;
    Stopwatch w;
    data::Dataset ds = data::BookCrossingGenerator::Generate(cfg);
    double gen_ms = w.ElapsedMillis();

    w.Restart();
    mining::DiscoveryOptions dopt;
    dopt.min_support_fraction = 0.005;
    auto discovery = mining::DiscoverGroups(ds, dopt);
    VEXUS_CHECK(discovery.ok());
    double discover_ms = w.ElapsedMillis();

    w.Restart();
    index::InvertedIndex::Options iopt;
    iopt.materialization_fraction = 0.10;
    auto idx = index::InvertedIndex::Build(discovery->groups, iopt);
    VEXUS_CHECK(idx.ok());
    double index_ms = w.ElapsedMillis();

    PrintRow({FmtInt(s.users), FmtInt(s.ratings), Fmt(gen_ms, 0),
              Fmt(discover_ms, 0), FmtInt(discovery->groups.size()),
              Fmt(index_ms, 0), FmtInt(idx->build_stats().postings),
              Fmt(total.ElapsedMillis(), 0)},
             12);
  }
  std::printf(
      "\nshape check: near-linear growth per stage; paper scale (--full) "
      "completes offline on one core.\n");
  return 0;
}
