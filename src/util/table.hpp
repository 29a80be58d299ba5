// ASCII table and CSV rendering for the benchmark harnesses. Every bench
// binary prints the same rows the paper's tables/figures report; --csv mode
// emits machine-readable output for replotting.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace baps {

/// Column-aligned text table with a header row. Cells are strings; numeric
/// helpers format with fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent add_* calls append cells to it.
  Table& row();
  Table& cell(std::string value);
  Table& cell(double value, int precision = 2);
  Table& cell(std::uint64_t value);
  Table& cell_percent(double ratio01, int precision = 2);

  /// Renders with padded columns and a separator under the header.
  std::string to_string() const;
  /// Renders RFC-4180-ish CSV (no quoting of embedded commas needed here,
  /// but commas in cells are escaped by quoting anyway).
  std::string to_csv() const;

  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const Table& t);

/// Formats a byte count with binary units ("1.50 MiB").
std::string format_bytes(std::uint64_t bytes);

/// Formats seconds adaptively ("1.2 ms", "3.4 s").
std::string format_seconds(double seconds);

}  // namespace baps
