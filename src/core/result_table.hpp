// Uniform result container for campaign scenarios: typed columns, per-cell
// MeanCI / sample (ECDF) handles, and CSV/JSON sinks.
//
// Every scenario registered on the CampaignRegistry folds its shard results
// into one ResultTable, so rendering (text tables, CSV for plotting or
// golden diffs, JSON for tooling) is written once instead of once per
// figure. Both sinks print doubles with enough digits to restore the exact
// bits; the CSV sink round-trips, which is what makes CSV goldens diffable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "stats/summary.hpp"

namespace sanperf::core {

/// Shared handle to a pooled sample (the jump points of an ECDF). Cells
/// hold handles rather than copies so a table row and the renderer can
/// share one latency sample without duplicating thousands of doubles.
class SampleRef {
 public:
  SampleRef() = default;
  explicit SampleRef(std::vector<double> values)
      : values_{std::make_shared<const std::vector<double>>(std::move(values))} {}

  [[nodiscard]] const std::vector<double>& values() const {
    static const std::vector<double> kEmpty;
    return values_ ? *values_ : kEmpty;
  }
  [[nodiscard]] bool empty() const { return values_ == nullptr || values_->empty(); }
  [[nodiscard]] std::size_t size() const { return values_ ? values_->size() : 0; }

 private:
  std::shared_ptr<const std::vector<double>> values_;
};

class ResultTable {
 public:
  enum class ColumnType { kInt, kReal, kString, kMeanCI, kSample };

  struct Column {
    std::string name;
    ColumnType type;
  };

  /// A cell: monostate renders as null/"-" (e.g. no simulation for this n).
  using Value =
      std::variant<std::monostate, std::int64_t, double, std::string, stats::MeanCI, SampleRef>;

  ResultTable() = default;
  ResultTable(std::string name, std::vector<Column> columns);

  /// Appends a row; throws std::invalid_argument on arity or type mismatch
  /// (monostate is legal in any column).
  void add_row(std::vector<Value> cells);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Column>& columns() const { return columns_; }
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] const std::vector<Value>& row(std::size_t r) const { return rows_[r]; }
  [[nodiscard]] const Value& cell(std::size_t r, std::size_t c) const { return rows_[r][c]; }
  /// Index of the named column, or nullopt.
  [[nodiscard]] std::optional<std::size_t> column_index(std::string_view column) const;
  /// cell(row, column_index(column)); throws std::out_of_range on a bad name.
  [[nodiscard]] const Value& at(std::size_t r, std::string_view column) const;

  // --- Sinks -----------------------------------------------------------------
  // CSV: one `#table <name>` comment line, a `name:type` header, one line
  // per row. MeanCI cells are `mean;half_width;confidence;count`, sample
  // cells `v0;v1;...` (`-` for a present-but-empty sample), null cells
  // empty. Doubles use %.17g (bit-exact round-trip). String cells must not
  // contain separators or newlines.
  void write_csv(std::ostream& os) const;
  [[nodiscard]] std::string to_csv() const;
  static ResultTable from_csv(std::istream& is);
  static ResultTable from_csv(const std::string& text);

  // JSON (write-only): {"table": name, "columns": [{"name","type"}],
  // "rows": [[...]]} with MeanCI as an object, samples as arrays, null cells
  // as null.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;

  /// Aligned human-readable table (MeanCI via fmt_ci, samples as a count).
  void print(std::ostream& os) const;

 private:
  std::string name_;
  std::vector<Column> columns_;
  std::vector<std::vector<Value>> rows_;
};

[[nodiscard]] const char* to_string(ResultTable::ColumnType type);
/// Parses "int"/"real"/"string"/"ci"/"sample"; throws on anything else.
[[nodiscard]] ResultTable::ColumnType column_type_from_string(std::string_view text);

}  // namespace sanperf::core
