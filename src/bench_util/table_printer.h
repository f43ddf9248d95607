// Aligned fixed-width table output for the benchmark harnesses; each bench
// binary prints the same rows/series the corresponding paper table or
// figure reports.
#ifndef TCSM_BENCH_UTIL_TABLE_PRINTER_H_
#define TCSM_BENCH_UTIL_TABLE_PRINTER_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/numbers.h"  // FormatDouble

namespace tcsm {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string FormatMegabytes(size_t bytes);

}  // namespace tcsm

#endif  // TCSM_BENCH_UTIL_TABLE_PRINTER_H_
