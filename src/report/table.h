// Fixed-width console tables used by the reproduction benches and
// examples. Deliberately tiny: rows of strings plus numeric convenience
// setters.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace icgkit::report {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent add_* calls fill it left to right.
  Table& row();
  Table& add(std::string cell);
  Table& add(double value, int precision = 4);
  Table& add(long long value);

  /// Renders with column-width autosizing, a header underline and 2-space
  /// column gaps.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& header() const { return headers_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Section banner: "== title ==" with surrounding blank lines.
void banner(std::ostream& os, const std::string& title);

} // namespace icgkit::report
