#include "bench_util/table_printer.h"

#include <iomanip>
#include <ostream>

namespace tcsm {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << (c == 0 ? "" : "  ") << std::left << std::setw(
             static_cast<int>(widths[c]))
         << cell;
    }
    os << "\n";
  };
  print_row(headers_);
  std::string rule;
  for (size_t c = 0; c < widths.size(); ++c) {
    rule += std::string(widths[c], '-');
    if (c + 1 < widths.size()) rule += "  ";
  }
  os << rule << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string FormatMegabytes(size_t bytes) {
  return FormatDouble(static_cast<double>(bytes) / (1024.0 * 1024.0), 2);
}

}  // namespace tcsm
