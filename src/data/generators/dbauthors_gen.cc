#include "data/generators/dbauthors_gen.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/etl.h"

namespace vexus::data {

namespace {

// Topics with the venues their community publishes in (area = item category).
struct TopicSpec {
  const char* name;
  std::array<const char*, 4> venues;
};

const TopicSpec kTopics[] = {
    {"data management", {"sigmod", "vldb", "icde", "edbt"}},
    {"web search", {"sigir", "www", "cikm", "wsdm"}},
    {"data mining", {"kdd", "icdm", "cikm", "pkdd"}},
    {"machine learning", {"icml", "nips", "kdd", "aaai"}},
    {"information retrieval", {"sigir", "cikm", "ecir", "wsdm"}},
    {"database theory", {"pods", "icdt", "sigmod", "vldb"}},
    {"visualization", {"vis", "chi", "sigmod", "icde"}},
    {"nlp", {"acl", "emnlp", "naacl", "cikm"}},
};
constexpr size_t kNumTopics = sizeof(kTopics) / sizeof(kTopics[0]);

const char* VenueArea(const std::string& venue) {
  static const std::array<std::pair<const char*, const char*>, 22> kAreas = {{
      {"sigmod", "databases"}, {"vldb", "databases"},  {"icde", "databases"},
      {"edbt", "databases"},   {"pods", "databases"},  {"icdt", "databases"},
      {"sigir", "ir"},         {"www", "web"},         {"cikm", "ir"},
      {"wsdm", "web"},         {"ecir", "ir"},         {"kdd", "mining"},
      {"icdm", "mining"},      {"pkdd", "mining"},     {"icml", "ml"},
      {"nips", "ml"},          {"aaai", "ml"},         {"vis", "viz"},
      {"chi", "viz"},          {"acl", "nlp"},         {"emnlp", "nlp"},
      {"naacl", "nlp"},
  }};
  for (const auto& [v, area] : kAreas) {
    if (venue == v) return area;
  }
  return "other";
}

const char* const kCountries[] = {"usa",    "france",  "germany", "brazil",
                                  "china",  "india",   "uk",      "canada",
                                  "italy",  "netherlands"};
const double kCountryWeights[] = {0.30, 0.09, 0.10, 0.07, 0.12,
                                  0.08, 0.08, 0.06, 0.05, 0.05};

const char* const kSeniorities[] = {"junior", "mid", "senior", "very senior"};
const double kSeniorityWeights[] = {0.35, 0.30, 0.23, 0.12};

}  // namespace

const std::vector<std::string>& DbAuthorsGenerator::Venues() {
  static const std::vector<std::string>* kVenues = [] {
    auto* v = new std::vector<std::string>();
    for (const auto& t : kTopics) {
      for (const char* venue : t.venues) {
        if (std::find(v->begin(), v->end(), venue) == v->end()) {
          v->push_back(venue);
        }
      }
    }
    return v;
  }();
  return *kVenues;
}

Dataset DbAuthorsGenerator::Generate(const Config& config) {
  VEXUS_CHECK(config.num_authors > 0);
  Dataset ds;
  Rng rng(config.seed, /*stream=*/11);

  Schema& schema = ds.schema();
  AttributeId gender_attr = schema.AddCategorical("gender");
  AttributeId seniority_attr = schema.AddCategorical("seniority");
  AttributeId country_attr = schema.AddCategorical("country");
  AttributeId topic_attr = schema.AddCategorical("topic");
  AttributeId pubs_attr = schema.AddNumeric("publications");
  AttributeId years_attr = schema.AddNumeric("career_years");

  schema.attribute(pubs_attr).SetBinEdges({0, 10, 30, 80, 150, 1000});
  schema.attribute(years_attr).SetBinEdges({0, 5, 10, 20, 30, 60});

  std::vector<double> country_w(std::begin(kCountryWeights),
                                std::end(kCountryWeights));
  std::vector<double> seniority_w(std::begin(kSeniorityWeights),
                                  std::end(kSeniorityWeights));

  // Register venues up front so item ids are stable across configs.
  for (const std::string& v : Venues()) {
    ds.actions().AddItem(v, VenueArea(v));
  }

  for (uint32_t i = 0; i < config.num_authors; ++i) {
    UserId u = ds.users().AddUser(StrCat("author", i));

    size_t topic = rng.UniformU32(kNumTopics);
    ds.users().SetValueByName(u, topic_attr, kTopics[topic].name);

    // Gender imbalance, slightly topic-dependent (the paper's 62%-male
    // data-management example).
    double male_p = 0.65 + (topic == 0 ? 0.05 : 0.0) - (topic == 7 ? 0.08 : 0.0);
    ds.users().SetValueByName(u, gender_attr,
                              rng.Bernoulli(male_p) ? "male" : "female");

    size_t seniority = rng.Categorical(seniority_w);
    ds.users().SetValueByName(u, seniority_attr, kSeniorities[seniority]);

    ds.users().SetValueByName(u, country_attr,
                              kCountries[rng.Categorical(country_w)]);

    // Career years by seniority band; publications grow superlinearly with
    // years plus a lognormal individual factor (long tail: the Elke-
    // Rundensteiner-style "extremely active" outliers of §II.B).
    double years;
    switch (seniority) {
      case 0: years = rng.UniformDouble(1, 6); break;
      case 1: years = rng.UniformDouble(5, 12); break;
      case 2: years = rng.UniformDouble(10, 22); break;
      default: years = rng.UniformDouble(18, 40); break;
    }
    double personal = std::exp(rng.Normal(0.0, 0.6));
    double pubs = std::min(900.0, years * 3.0 * personal +
                                      rng.UniformDouble(0, 5));
    ds.users().SetNumeric(u, years_attr, std::round(years));
    ds.users().SetNumeric(u, pubs_attr, std::round(pubs));

    // Publishing actions: mostly the topic's venues, a few cross-area.
    // Normal() is unbounded, so clamp the draw *as a double* before the int
    // cast: casting an out-of-range double (a pathological
    // venues_per_author config, or NaN) is UB, and the old
    // `max(1, static_cast<int>(...))` only repaired the damage after the
    // cast had already executed. No author exceeds the venue catalog.
    double venue_draw =
        std::round(rng.Normal(config.venues_per_author, 1.0));
    const double max_venues = static_cast<double>(Venues().size());
    if (!(venue_draw > 1.0)) {  // NaN lands here too
      venue_draw = 1.0;
    } else if (venue_draw > max_venues) {
      venue_draw = max_venues;
    }
    int n_venues = static_cast<int>(venue_draw);
    double remaining = pubs;
    for (int v = 0; v < n_venues && remaining >= 1.0; ++v) {
      std::string venue;
      if (rng.Bernoulli(0.8)) {
        venue = kTopics[topic].venues[rng.UniformU32(4)];
      } else {
        const auto& all = Venues();
        venue = all[rng.UniformU32(static_cast<uint32_t>(all.size()))];
      }
      ItemId item = ds.actions().AddItem(venue, VenueArea(venue));
      double share = (v == n_venues - 1)
                         ? remaining
                         : std::ceil(remaining * rng.UniformDouble(0.2, 0.6));
      share = std::max(1.0, std::min(share, remaining));
      ds.actions().AddAction(u, item, static_cast<float>(share));
      remaining -= share;
    }
  }
  ds.actions().DeduplicateKeepLast();

  // Derived activity level mirrors the ETL derivation.
  {
    AttributeId act_attr = schema.AddNumeric("activity");
    std::vector<uint32_t> counts = ds.actions().ActionCounts(ds.num_users());
    std::vector<double> vals(counts.begin(), counts.end());
    std::vector<double> edges =
        EtlPipeline::ComputeBinEdges(vals, 3, BinningStrategy::kQuantile);
    edges.back() =
        std::nextafter(edges.back(), std::numeric_limits<double>::infinity());
    schema.attribute(act_attr).SetBinEdges(std::move(edges));
    for (UserId u = 0; u < ds.num_users(); ++u) {
      ds.users().SetNumeric(u, act_attr, counts[u]);
    }
  }

  VEXUS_CHECK(ds.Validate().ok());
  return ds;
}

}  // namespace vexus::data
