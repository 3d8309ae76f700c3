#include "core/result_table.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/json.hpp"
#include "core/parse_util.hpp"
#include "core/report.hpp"

namespace sanperf::core {

namespace {

constexpr std::size_t type_index_of(ResultTable::ColumnType type) {
  switch (type) {
    case ResultTable::ColumnType::kInt: return 1;
    case ResultTable::ColumnType::kReal: return 2;
    case ResultTable::ColumnType::kString: return 3;
    case ResultTable::ColumnType::kMeanCI: return 4;
    case ResultTable::ColumnType::kSample: return 5;
  }
  return 0;
}

/// Shortest decimal form that restores the exact double bits.
constexpr auto exact = detail::json_exact;

using detail::split;

double parse_real(std::string_view text) { return detail::parse_real(text, "ResultTable"); }

std::int64_t parse_int(std::string_view text) { return detail::parse_int(text, "ResultTable"); }

void check_csv_safe(std::string_view text, const char* what) {
  if (text.find_first_of(",;\n\r\"") != std::string_view::npos) {
    throw std::invalid_argument{std::string{"ResultTable: "} + what + " '" + std::string{text} +
                                "' contains a CSV separator"};
  }
}

}  // namespace

const char* to_string(ResultTable::ColumnType type) {
  switch (type) {
    case ResultTable::ColumnType::kInt: return "int";
    case ResultTable::ColumnType::kReal: return "real";
    case ResultTable::ColumnType::kString: return "string";
    case ResultTable::ColumnType::kMeanCI: return "ci";
    case ResultTable::ColumnType::kSample: return "sample";
  }
  return "?";
}

ResultTable::ColumnType column_type_from_string(std::string_view text) {
  if (text == "int") return ResultTable::ColumnType::kInt;
  if (text == "real") return ResultTable::ColumnType::kReal;
  if (text == "string") return ResultTable::ColumnType::kString;
  if (text == "ci") return ResultTable::ColumnType::kMeanCI;
  if (text == "sample") return ResultTable::ColumnType::kSample;
  throw std::invalid_argument{"ResultTable: unknown column type '" + std::string{text} + "'"};
}

ResultTable::ResultTable(std::string name, std::vector<Column> columns)
    : name_{std::move(name)}, columns_{std::move(columns)} {
  check_csv_safe(name_, "table name");
  for (const Column& col : columns_) {
    check_csv_safe(col.name, "column name");
    if (col.name.find(':') != std::string::npos) {
      throw std::invalid_argument{"ResultTable: column name '" + col.name + "' contains ':'"};
    }
  }
}

void ResultTable::add_row(std::vector<Value> cells) {
  if (cells.size() != columns_.size()) {
    throw std::invalid_argument{"ResultTable::add_row: arity mismatch in table '" + name_ + "'"};
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (cells[c].index() == 0) continue;  // null fits any column
    if (cells[c].index() != type_index_of(columns_[c].type)) {
      throw std::invalid_argument{"ResultTable::add_row: type mismatch in column '" +
                                  columns_[c].name + "'"};
    }
    if (const auto* s = std::get_if<std::string>(&cells[c])) check_csv_safe(*s, "string cell");
  }
  rows_.push_back(std::move(cells));
}

std::optional<std::size_t> ResultTable::column_index(std::string_view column) const {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c].name == column) return c;
  }
  return std::nullopt;
}

const ResultTable::Value& ResultTable::at(std::size_t r, std::string_view column) const {
  const auto c = column_index(column);
  if (!c) throw std::out_of_range{"ResultTable: no column '" + std::string{column} + "'"};
  return rows_.at(r)[*c];
}

// --- CSV ---------------------------------------------------------------------

void ResultTable::write_csv(std::ostream& os) const {
  os << "#table " << name_ << "\n";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << (c == 0 ? "" : ",") << columns_[c].name << ':' << to_string(columns_[c].type);
  }
  os << "\n";
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ',';
      const Value& v = row[c];
      if (std::holds_alternative<std::monostate>(v)) continue;  // null = empty
      switch (columns_[c].type) {
        case ColumnType::kInt: os << std::get<std::int64_t>(v); break;
        case ColumnType::kReal: os << exact(std::get<double>(v)); break;
        case ColumnType::kString: os << std::get<std::string>(v); break;
        case ColumnType::kMeanCI: {
          const auto& ci = std::get<stats::MeanCI>(v);
          os << exact(ci.mean) << ';' << exact(ci.half_width) << ';' << exact(ci.confidence)
             << ';' << ci.count;
          break;
        }
        case ColumnType::kSample: {
          const auto& xs = std::get<SampleRef>(v).values();
          // "-" marks a present-but-empty sample (an empty field is null);
          // unambiguous because a bare "-" is not a valid real.
          if (xs.empty()) os << '-';
          for (std::size_t i = 0; i < xs.size(); ++i) os << (i == 0 ? "" : ";") << exact(xs[i]);
          break;
        }
      }
    }
    os << "\n";
  }
}

std::string ResultTable::to_csv() const {
  std::ostringstream os;
  write_csv(os);
  return os.str();
}

ResultTable ResultTable::from_csv(const std::string& text) {
  std::istringstream is{text};
  return from_csv(is);
}

ResultTable ResultTable::from_csv(std::istream& is) {
  std::string line;
  std::string name;
  const auto strip_cr = [](std::string& text) {
    if (!text.empty() && text.back() == '\r') text.pop_back();  // CRLF input
  };
  // Optional leading comment lines; "#table " carries the name.
  while (std::getline(is, line)) {
    strip_cr(line);
    if (line.empty() || line.front() != '#') break;
    if (line.rfind("#table ", 0) == 0) name = line.substr(7);
  }
  if (line.empty()) throw std::invalid_argument{"ResultTable::from_csv: missing header"};
  std::vector<Column> columns;
  for (const auto token : split(line, ',')) {
    const auto colon = token.rfind(':');
    if (colon == std::string_view::npos) {
      throw std::invalid_argument{"ResultTable::from_csv: header token without type: '" +
                                  std::string{token} + "'"};
    }
    columns.push_back(Column{std::string{token.substr(0, colon)},
                             column_type_from_string(token.substr(colon + 1))});
  }
  ResultTable table{std::move(name), std::move(columns)};
  while (std::getline(is, line)) {
    strip_cr(line);
    if (line.empty()) continue;
    const auto cells = split(line, ',');
    if (cells.size() != table.columns_.size()) {
      throw std::invalid_argument{"ResultTable::from_csv: row arity mismatch"};
    }
    std::vector<Value> row;
    row.reserve(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::string_view cell = cells[c];
      if (cell.empty()) {
        row.emplace_back(std::monostate{});
        continue;
      }
      switch (table.columns_[c].type) {
        case ColumnType::kInt: row.emplace_back(parse_int(cell)); break;
        case ColumnType::kReal: row.emplace_back(parse_real(cell)); break;
        case ColumnType::kString: row.emplace_back(std::string{cell}); break;
        case ColumnType::kMeanCI: {
          const auto parts = split(cell, ';');
          if (parts.size() != 4) {
            throw std::invalid_argument{"ResultTable::from_csv: bad ci cell"};
          }
          stats::MeanCI ci;
          ci.mean = parse_real(parts[0]);
          ci.half_width = parse_real(parts[1]);
          ci.confidence = parse_real(parts[2]);
          ci.count = static_cast<std::uint64_t>(parse_int(parts[3]));
          row.emplace_back(ci);
          break;
        }
        case ColumnType::kSample: {
          std::vector<double> xs;
          if (cell != "-") {
            for (const auto part : split(cell, ';')) xs.push_back(parse_real(part));
          }
          row.emplace_back(SampleRef{std::move(xs)});
          break;
        }
      }
    }
    table.add_row(std::move(row));
  }
  return table;
}

// --- JSON --------------------------------------------------------------------

namespace {

constexpr auto json_string = detail::write_json_string;
constexpr auto json_number = detail::write_json_number;

}  // namespace

void ResultTable::write_json(std::ostream& os) const {
  os << "{\"table\":";
  json_string(os, name_);
  os << ",\"columns\":[";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << (c == 0 ? "" : ",") << "{\"name\":";
    json_string(os, columns_[c].name);
    os << ",\"type\":\"" << to_string(columns_[c].type) << "\"}";
  }
  os << "],\"rows\":[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << (r == 0 ? "" : ",") << '[';
    for (std::size_t c = 0; c < rows_[r].size(); ++c) {
      if (c > 0) os << ',';
      const Value& v = rows_[r][c];
      if (std::holds_alternative<std::monostate>(v)) {
        os << "null";
        continue;
      }
      switch (columns_[c].type) {
        case ColumnType::kInt: os << std::get<std::int64_t>(v); break;
        case ColumnType::kReal: json_number(os, std::get<double>(v)); break;
        case ColumnType::kString: json_string(os, std::get<std::string>(v)); break;
        case ColumnType::kMeanCI: {
          const auto& ci = std::get<stats::MeanCI>(v);
          os << "{\"mean\":";
          json_number(os, ci.mean);
          os << ",\"half_width\":";
          json_number(os, ci.half_width);
          os << ",\"confidence\":";
          json_number(os, ci.confidence);
          os << ",\"count\":" << ci.count << '}';
          break;
        }
        case ColumnType::kSample: {
          const auto& xs = std::get<SampleRef>(v).values();
          os << '[';
          for (std::size_t i = 0; i < xs.size(); ++i) {
            if (i > 0) os << ',';
            json_number(os, xs[i]);
          }
          os << ']';
          break;
        }
      }
    }
    os << ']';
  }
  os << "]}";
}

std::string ResultTable::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

// --- Text --------------------------------------------------------------------

namespace {

std::string render_cell(const ResultTable::Value& v) {
  if (std::holds_alternative<std::monostate>(v)) return "-";
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) return fmt(*d);
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  if (const auto* ci = std::get_if<stats::MeanCI>(&v)) return fmt_ci(*ci);
  const auto& sample = std::get<SampleRef>(v);
  std::string out{"["};
  out += std::to_string(sample.size());
  out += " samples]";
  return out;
}

}  // namespace

void ResultTable::print(std::ostream& os) const {
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  std::vector<std::pair<std::string, int>> widths;
  for (const Column& col : columns_) {
    widths.emplace_back(col.name, static_cast<int>(col.name.size()));
  }
  for (const auto& row : rows_) {
    auto& out = rendered.emplace_back();
    out.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      out.push_back(render_cell(row[c]));
      widths[c].second = std::max(widths[c].second, static_cast<int>(out.back().size()));
    }
  }
  TablePrinter printer{os, widths};
  printer.print_header();
  for (const auto& row : rendered) printer.print_row(row);
}

}  // namespace sanperf::core
