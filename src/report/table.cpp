#include "report/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace icgkit::report {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: need at least one column");
}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::add(std::string cell) {
  if (rows_.empty()) row();
  if (rows_.back().size() >= headers_.size())
    throw std::logic_error("Table: row has more cells than headers");
  rows_.back().push_back(std::move(cell));
  return *this;
}

Table& Table::add(double value, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << value;
  return add(ss.str());
}

Table& Table::add(long long value) { return add(std::to_string(value)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c) widths[c] = std::max(widths[c], r[c].size());

  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = (c < cells.size()) ? cells[c] : std::string{};
      os << std::left << std::setw(static_cast<int>(widths[c])) << cell;
      if (c + 1 < headers_.size()) os << "  ";
    }
    os << '\n';
  };

  print_row(headers_);
  std::size_t total = 0;
  for (const auto w : widths) total += w;
  total += 2 * (headers_.size() - 1);
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) print_row(r);
}

void banner(std::ostream& os, const std::string& title) {
  os << "\n== " << title << " ==\n";
}

} // namespace icgkit::report
