// Aligned markdown table printer used by the benchmark harness.
//
// Every bench binary regenerates one experiment table (see the end of
// docs/architecture.md section 12) by streaming rows into a Table and
// printing it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mobile::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& addRow(std::vector<std::string> cells);

  /// Convenience cell formatters.
  static std::string num(std::int64_t v);
  static std::string num(std::uint64_t v);
  static std::string num(int v);
  static std::string fixed(double v, int digits = 2);
  static std::string sci(double v, int digits = 2);
  static std::string pct(double fraction, int digits = 1);
  static std::string boolean(bool b);

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mobile::util
