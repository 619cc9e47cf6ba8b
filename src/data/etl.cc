#include "data/etl.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace vexus::data {

std::string EtlReport::ToString() const {
  std::ostringstream os;
  os << "ETL: users " << user_rows_in << "->" << users_out << " ("
     << duplicate_user_rows << " dup rows, " << users_created_from_actions
     << " created from actions), actions " << action_rows_in << "->"
     << actions_out << " (" << actions_deduplicated << " deduped, "
     << actions_dropped_bad_value << " bad values), " << null_cells
     << " null cells; numeric=[" << Join(numeric_columns, ",")
     << "] categorical=[" << Join(categorical_columns, ",") << "]";
  return os.str();
}

EtlPipeline::EtlPipeline(EtlOptions options) : options_(std::move(options)) {}

std::string EtlPipeline::CleanCell(const std::string& cell) const {
  std::string cleaned(Trim(cell));
  if (options_.lowercase_values) cleaned = ToLower(cleaned);
  return cleaned;
}

bool EtlPipeline::IsNullToken(const std::string& cleaned) const {
  std::string lower = ToLower(cleaned);
  for (const auto& tok : options_.null_tokens) {
    if (lower == ToLower(tok)) return true;
  }
  return false;
}

std::vector<double> EtlPipeline::ComputeBinEdges(std::vector<double> values,
                                                 int num_bins,
                                                 BinningStrategy strategy) {
  VEXUS_CHECK(num_bins >= 1);
  if (values.empty()) return {0.0, 1.0};
  std::sort(values.begin(), values.end());
  double lo = values.front();
  double hi = values.back();
  if (lo == hi) return {lo, lo + 1.0};

  std::vector<double> edges;
  if (strategy == BinningStrategy::kEqualWidth) {
    double width = (hi - lo) / num_bins;
    for (int i = 0; i <= num_bins; ++i) edges.push_back(lo + width * i);
  } else {
    edges.push_back(lo);
    for (int i = 1; i < num_bins; ++i) {
      size_t idx = static_cast<size_t>(
          static_cast<double>(values.size()) * i / num_bins);
      idx = std::min(idx, values.size() - 1);
      double e = values[idx];
      if (e > edges.back()) edges.push_back(e);  // collapse duplicate edges
    }
    if (hi > edges.back()) {
      edges.push_back(hi);
    }
    // A degenerate distribution can leave a single edge; widen it.
    if (edges.size() < 2) edges.push_back(edges.back() + 1.0);
    // Make the top edge exclusive-safe: nudge so max value falls in last bin.
  }
  return edges;
}

Result<Dataset> EtlPipeline::Run(std::istream* users_csv,
                                 std::istream* actions_csv) {
  if (users_csv == nullptr) {
    return Status::InvalidArgument("users_csv must not be null");
  }
  report_ = EtlReport{};
  Dataset ds;

  // ---- Pass 1: read all user rows as cleaned strings. ----
  CsvReader reader(users_csv);
  if (reader.header().empty()) {
    return Status::Corruption("users CSV has no header row");
  }
  const std::vector<std::string> header = reader.header();
  size_t n_cols = header.size();
  if (n_cols < 1) {
    return Status::Corruption("users CSV header has no columns");
  }

  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  while (reader.Next(&row)) {
    ++report_.user_rows_in;
    if (row.size() != n_cols) {
      return Status::Corruption(
          "users CSV row " + std::to_string(reader.line_number()) + " has " +
          std::to_string(row.size()) + " fields, expected " +
          std::to_string(n_cols));
    }
    rows.push_back(row);
  }
  VEXUS_RETURN_NOT_OK(reader.status().WithContext("reading users CSV"));

  // ---- Column type inference. ----
  // A column is numeric when >= threshold of its non-null cells parse.
  std::vector<bool> is_numeric(n_cols, false);
  for (size_t c = 1; c < n_cols; ++c) {
    size_t non_null = 0, parsed = 0;
    for (const auto& r : rows) {
      std::string cleaned = CleanCell(r[c]);
      if (IsNullToken(cleaned)) continue;
      ++non_null;
      if (ParseDouble(cleaned).has_value()) ++parsed;
    }
    is_numeric[c] =
        non_null > 0 && static_cast<double>(parsed) / non_null >=
                            options_.numeric_inference_threshold;
  }

  // ---- Declare attributes. ----
  std::vector<AttributeId> attr_ids(n_cols, 0);
  for (size_t c = 1; c < n_cols; ++c) {
    std::string name(Trim(header[c]));
    if (name.empty()) name = StrCat("col", c);
    if (ds.schema().Find(name).has_value()) {
      return Status::InvalidArgument("duplicate attribute name '" + name +
                                     "' in users CSV header");
    }
    attr_ids[c] = is_numeric[c] ? ds.schema().AddNumeric(name)
                                : ds.schema().AddCategorical(name);
    (is_numeric[c] ? report_.numeric_columns : report_.categorical_columns)
        .push_back(name);
  }

  // ---- Materialize users. ----
  for (const auto& r : rows) {
    std::string uid(Trim(r[0]));
    if (uid.empty()) {
      ++report_.duplicate_user_rows;  // unusable row
      continue;
    }
    bool existed = ds.users().FindUser(uid).has_value();
    if (existed) ++report_.duplicate_user_rows;
    UserId u = ds.users().AddUser(uid);
    for (size_t c = 1; c < n_cols; ++c) {
      std::string cleaned = CleanCell(r[c]);
      if (IsNullToken(cleaned)) {
        ++report_.null_cells;
        continue;
      }
      if (is_numeric[c]) {
        auto v = ParseDouble(cleaned);
        if (v.has_value()) {
          ds.users().SetNumeric(u, attr_ids[c], *v);
        } else {
          ++report_.null_cells;  // stray non-numeric cell in numeric column
        }
      } else {
        ds.users().SetValueByName(u, attr_ids[c], cleaned);
      }
    }
  }
  rows.clear();
  rows.shrink_to_fit();

  // ---- Numeric binning. ----
  for (size_t c = 1; c < n_cols; ++c) {
    if (!is_numeric[c]) continue;
    AttributeId a = attr_ids[c];
    std::vector<double> vals;
    vals.reserve(ds.num_users());
    for (UserId u = 0; u < ds.num_users(); ++u) {
      double v = ds.users().Numeric(u, a);
      if (!std::isnan(v)) vals.push_back(v);
    }
    std::vector<double> edges =
        ComputeBinEdges(std::move(vals), options_.num_bins, options_.binning);
    // Widen the top edge slightly so the observed max lands inside the last
    // bin rather than on its exclusive boundary.
    edges.back() = std::nextafter(edges.back(),
                                  std::numeric_limits<double>::infinity());
    ds.schema().attribute(a).SetBinEdges(std::move(edges));
    ds.users().ApplyBins(a);
  }

  // ---- Actions. ----
  if (actions_csv != nullptr) {
    CsvReader areader(actions_csv);
    if (areader.header().size() < 2) {
      return Status::Corruption(
          "actions CSV needs at least (user, item) columns");
    }
    bool has_value = areader.header().size() >= 3;
    bool has_category = areader.header().size() >= 4;
    std::vector<std::string> arow;
    while (areader.Next(&arow)) {
      ++report_.action_rows_in;
      if (arow.size() < 2) continue;
      std::string uid(Trim(arow[0]));
      std::string item_name(Trim(arow[1]));
      if (uid.empty() || item_name.empty()) {
        ++report_.actions_dropped_bad_value;
        continue;
      }
      auto maybe_user = ds.users().FindUser(uid);
      UserId u;
      if (maybe_user.has_value()) {
        u = *maybe_user;
      } else if (options_.add_missing_users) {
        u = ds.users().AddUser(uid);
        ++report_.users_created_from_actions;
      } else {
        ++report_.actions_dropped_bad_value;
        continue;
      }
      float value = 1.0f;
      if (has_value && arow.size() >= 3) {
        auto v = ParseDouble(Trim(arow[2]));
        if (v.has_value()) {
          value = static_cast<float>(*v);
        } else if (options_.drop_unparsable_values) {
          ++report_.actions_dropped_bad_value;
          continue;
        }
      }
      ItemId item;
      if (has_category && arow.size() >= 4 &&
          !IsNullToken(CleanCell(arow[3]))) {
        item = ds.actions().AddItem(item_name, CleanCell(arow[3]));
      } else {
        item = ds.actions().AddItem(item_name);
      }
      ds.actions().AddAction(u, item, value);
    }
    VEXUS_RETURN_NOT_OK(areader.status().WithContext("reading actions CSV"));

    if (options_.dedup_actions) {
      report_.actions_deduplicated = ds.actions().DeduplicateKeepLast();
    }
  }

  // ---- Derived attributes. ----
  if (options_.derive_activity_level && ds.num_actions() > 0) {
    AttributeId a = ds.schema().AddNumeric("activity");
    std::vector<uint32_t> counts = ds.actions().ActionCounts(ds.num_users());
    std::vector<double> vals;
    vals.reserve(counts.size());
    for (UserId u = 0; u < ds.num_users(); ++u) {
      ds.users().SetNumeric(u, a, counts[u]);
      vals.push_back(counts[u]);
    }
    std::vector<double> edges =
        ComputeBinEdges(std::move(vals), 3, BinningStrategy::kQuantile);
    edges.back() = std::nextafter(edges.back(),
                                  std::numeric_limits<double>::infinity());
    ds.schema().attribute(a).SetBinEdges(std::move(edges));
    ds.users().ApplyBins(a);
  }

  if (options_.derive_favorite_category &&
      ds.actions().categories().size() > 0) {
    AttributeId a =
        ds.schema().AddCategorical(options_.favorite_category_name);
    // Most frequent category among each user's actions.
    std::unordered_map<uint64_t, uint32_t> freq;  // (user<<32|cat) -> count
    for (const auto& r : ds.actions().records()) {
      ValueId cat = ds.actions().ItemCategory(r.item);
      if (cat == kNullValue) continue;
      ++freq[(static_cast<uint64_t>(r.user) << 32) | cat];
    }
    std::vector<std::pair<uint32_t, ValueId>> best(
        ds.num_users(), {0, kNullValue});  // (count, category)
    for (const auto& [key, count] : freq) {
      UserId u = static_cast<UserId>(key >> 32);
      ValueId cat = static_cast<ValueId>(key & 0xffffffffu);
      // Deterministic tie-break on the smaller category id.
      if (count > best[u].first ||
          (count == best[u].first && cat < best[u].second)) {
        best[u] = {count, cat};
      }
    }
    for (UserId u = 0; u < ds.num_users(); ++u) {
      if (best[u].second != kNullValue) {
        ds.users().SetValueByName(
            u, a, ds.actions().categories().Name(best[u].second));
      }
    }
  }

  report_.users_out = ds.num_users();
  report_.actions_out = ds.num_actions();

  VEXUS_RETURN_NOT_OK(ds.Validate().WithContext("post-ETL validation"));
  return ds;
}

}  // namespace vexus::data
