#include "data/generators/bookcrossing_gen.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/etl.h"

namespace vexus::data {

namespace {

const char* const kGenres[] = {"fiction",   "thriller", "romance",
                               "mystery",   "scifi",    "fantasy",
                               "biography", "history",  "selfhelp",
                               "children"};
constexpr size_t kNumGenres = sizeof(kGenres) / sizeof(kGenres[0]);

const char* const kCountries[] = {"usa",    "canada", "uk",       "germany",
                                  "spain",  "france", "australia", "italy",
                                  "brazil", "portugal"};
const double kCountryWeights[] = {0.45, 0.08, 0.07, 0.07, 0.06,
                                  0.06, 0.05, 0.06, 0.05, 0.05};

const char* const kOccupations[] = {"student",   "engineer", "teacher",
                                    "librarian", "manager",  "retired",
                                    "writer",    "nurse",    "salesperson",
                                    "artist"};
const double kOccupationWeights[] = {0.20, 0.12, 0.12, 0.06, 0.12,
                                     0.10, 0.05, 0.09, 0.08, 0.06};

}  // namespace

Dataset BookCrossingGenerator::Generate(const Config& config) {
  VEXUS_CHECK(config.num_users > 0 && config.num_books > 0);
  Dataset ds;
  Rng rng(config.seed, /*stream=*/7);

  Schema& schema = ds.schema();
  AttributeId age_attr = schema.AddNumeric("age");
  AttributeId country_attr = schema.AddCategorical("country");
  AttributeId occupation_attr = schema.AddCategorical("occupation");

  // Fixed, human-meaningful age bins (the ETL quantile path is exercised by
  // the CSV route; generators pre-bin for stability across scales).
  schema.attribute(age_attr).SetBinEdges({10, 18, 25, 35, 50, 65, 100});

  std::vector<double> country_w(std::begin(kCountryWeights),
                                std::end(kCountryWeights));
  std::vector<double> occupation_w(std::begin(kOccupationWeights),
                                   std::end(kOccupationWeights));

  // ---- Users & demographics. ----
  // Favorite genres per user drive the rating model below.
  std::vector<std::array<uint8_t, 3>> favorites(config.num_users);
  std::vector<uint8_t> num_favorites(config.num_users);
  for (uint32_t u = 0; u < config.num_users; ++u) {
    UserId uid = ds.users().AddUser(StrCat("u", u));
    double age = std::clamp(rng.Normal(36.0, 14.0), 10.0, 95.0);
    ds.users().SetNumeric(uid, age_attr, age);
    size_t country = rng.Categorical(country_w);
    ds.users().SetValueByName(uid, country_attr, kCountries[country]);
    size_t occ = rng.Categorical(occupation_w);
    // Occupation correlates with age: under-22s are mostly students,
    // over-65s mostly retired. This gives exploration meaningful conjunctive
    // groups ("retired in the UK who read history").
    if (age < 22 && rng.Bernoulli(0.7)) occ = 0;           // student
    if (age > 65 && rng.Bernoulli(0.75)) occ = 5;          // retired
    ds.users().SetValueByName(uid, occupation_attr, kOccupations[occ]);

    uint8_t nf = static_cast<uint8_t>(1 + rng.UniformU32(3));  // 1..3
    num_favorites[u] = nf;
    // Age nudges taste: younger users skew fantasy/scifi/children,
    // older users skew history/biography.
    for (uint8_t f = 0; f < nf; ++f) {
      uint32_t g;
      if (age < 25 && rng.Bernoulli(0.5)) {
        const uint32_t young[] = {4, 5, 9, 0};  // scifi, fantasy, children, fiction
        g = young[rng.UniformU32(4)];
      } else if (age > 55 && rng.Bernoulli(0.5)) {
        const uint32_t old[] = {6, 7, 0, 3};  // biography, history, fiction, mystery
        g = old[rng.UniformU32(4)];
      } else {
        g = rng.UniformU32(static_cast<uint32_t>(kNumGenres));
      }
      favorites[u][f] = static_cast<uint8_t>(g);
    }
  }

  // ---- Books. ----
  std::vector<uint8_t> book_genre(config.num_books);
  for (uint32_t b = 0; b < config.num_books; ++b) {
    uint8_t g = static_cast<uint8_t>(rng.UniformU32(kNumGenres));
    book_genre[b] = g;
    ds.actions().AddItem(StrCat("book", b), kGenres[g]);
  }

  // ---- Ratings. ----
  // Book chosen by Zipf popularity *within a genre pool* so that favorite-
  // genre structure survives; user chosen by Zipf activity.
  ZipfSampler book_zipf(config.num_books, config.popularity_skew);
  ZipfSampler user_zipf(config.num_users, config.activity_skew);
  // Random permutations decouple id order from rank order.
  std::vector<uint32_t> user_perm(config.num_users);
  for (uint32_t i = 0; i < config.num_users; ++i) user_perm[i] = i;
  rng.Shuffle(&user_perm);
  std::vector<uint32_t> book_perm(config.num_books);
  for (uint32_t i = 0; i < config.num_books; ++i) book_perm[i] = i;
  rng.Shuffle(&book_perm);

  // Per-genre book pools for affinity-directed picks.
  std::vector<std::vector<uint32_t>> genre_pool(kNumGenres);
  for (uint32_t b = 0; b < config.num_books; ++b) {
    genre_pool[book_genre[b]].push_back(b);
  }

  for (uint32_t r = 0; r < config.num_ratings; ++r) {
    uint32_t u = user_perm[user_zipf.Sample(&rng)];
    uint32_t b;
    bool in_favorite = rng.Bernoulli(config.genre_affinity);
    if (in_favorite) {
      uint8_t g = favorites[u][rng.UniformU32(num_favorites[u])];
      const auto& pool = genre_pool[g];
      if (!pool.empty()) {
        b = pool[rng.UniformU32(static_cast<uint32_t>(pool.size()))];
      } else {
        b = book_perm[book_zipf.Sample(&rng)];
      }
    } else {
      b = book_perm[book_zipf.Sample(&rng)];
    }
    bool favored = false;
    for (uint8_t f = 0; f < num_favorites[u]; ++f) {
      favored |= favorites[u][f] == book_genre[b];
    }
    double mean = favored ? 8.0 : 5.5;
    double stddev = favored ? 1.3 : 2.0;
    double rating = std::clamp(std::round(rng.Normal(mean, stddev)), 1.0, 10.0);
    ds.actions().AddAction(u, b, static_cast<float>(rating));
  }

  // ---- Derived attributes (mirrors the ETL derivations). ----
  {
    AttributeId act_attr = schema.AddNumeric("activity");
    std::vector<uint32_t> counts = ds.actions().ActionCounts(ds.num_users());
    std::vector<double> vals(counts.begin(), counts.end());
    std::vector<double> edges = EtlPipeline::ComputeBinEdges(
        vals, 3, BinningStrategy::kQuantile);
    edges.back() =
        std::nextafter(edges.back(), std::numeric_limits<double>::infinity());
    schema.attribute(act_attr).SetBinEdges(std::move(edges));
    for (UserId u = 0; u < ds.num_users(); ++u) {
      ds.users().SetNumeric(u, act_attr, counts[u]);
    }
  }
  {
    AttributeId fav_attr = schema.AddCategorical("favorite_genre");
    // Most-rated genre with rating >= 7 (a "liked" genre); falls back to the
    // most-rated genre overall.
    std::vector<std::array<uint16_t, kNumGenres>> liked(ds.num_users());
    std::vector<std::array<uint16_t, kNumGenres>> any(ds.num_users());
    for (auto& a : liked) a.fill(0);
    for (auto& a : any) a.fill(0);
    for (const auto& rec : ds.actions().records()) {
      uint8_t g = book_genre[rec.item];
      if (any[rec.user][g] < UINT16_MAX) ++any[rec.user][g];
      if (rec.value >= 7.0f && liked[rec.user][g] < UINT16_MAX) {
        ++liked[rec.user][g];
      }
    }
    for (UserId u = 0; u < ds.num_users(); ++u) {
      const auto& counts = std::any_of(liked[u].begin(), liked[u].end(),
                                       [](uint16_t c) { return c > 0; })
                               ? liked[u]
                               : any[u];
      size_t best = 0;
      for (size_t g = 1; g < kNumGenres; ++g) {
        if (counts[g] > counts[best]) best = g;
      }
      if (counts[best] > 0) {
        ds.users().SetValueByName(u, fav_attr, kGenres[best]);
      }
    }
  }

  VEXUS_CHECK(ds.Validate().ok());
  return ds;
}

}  // namespace vexus::data
