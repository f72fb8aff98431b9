#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace mobile::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::addRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

namespace {
std::string format(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}
}  // namespace

std::string Table::num(std::int64_t v) { return std::to_string(v); }
std::string Table::num(std::uint64_t v) { return std::to_string(v); }
std::string Table::num(int v) { return std::to_string(v); }

std::string Table::fixed(double v, int digits) {
  char fmt[16];
  std::snprintf(fmt, sizeof fmt, "%%.%df", digits);
  return format(fmt, v);
}

std::string Table::sci(double v, int digits) {
  char fmt[16];
  std::snprintf(fmt, sizeof fmt, "%%.%de", digits);
  return format(fmt, v);
}

std::string Table::pct(double fraction, int digits) {
  return fixed(fraction * 100.0, digits) + "%";
}

std::string Table::boolean(bool b) { return b ? "yes" : "no"; }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      os << " " << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    os << "\n";
  };

  emit(headers_);
  os << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << std::string(widths[c] + 2, '-') << "|";
  os << "\n";
  for (const auto& row : rows_) emit(row);
}

}  // namespace mobile::util
