// Machine-readable benchmark records: each measurement is emitted as one
// line of the form
//
//   BENCH {"bench":"<name>","key":value,...}
//
// so perf trajectories can be grepped out of any driver's stdout
// (`grep ^BENCH | cut -c7-` yields a JSON stream). Keys appear in
// insertion order after "bench" and "nproc" (the host's hardware thread
// count, so every number carries the core count it was measured on);
// values are numbers or strings.
#ifndef TCSM_BENCH_UTIL_BENCH_JSON_H_
#define TCSM_BENCH_UTIL_BENCH_JSON_H_

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>

namespace tcsm {

class BenchJsonLine {
 public:
  explicit BenchJsonLine(const std::string& bench) {
    body_ << "{\"bench\":\"" << bench << "\",\"nproc\":"
          << std::thread::hardware_concurrency();
  }

  BenchJsonLine& Field(const std::string& key, const std::string& value) {
    body_ << ",\"" << key << "\":\"" << value << '"';
    return *this;
  }
  BenchJsonLine& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }
  BenchJsonLine& Field(const std::string& key, double value) {
    body_ << ",\"" << key << "\":" << value;
    return *this;
  }
  BenchJsonLine& Field(const std::string& key, uint64_t value) {
    body_ << ",\"" << key << "\":" << value;
    return *this;
  }

  void Print(std::ostream& out) const {
    out << "BENCH " << body_.str() << "}\n";
  }

 private:
  std::ostringstream body_;
};

}  // namespace tcsm

#endif  // TCSM_BENCH_UTIL_BENCH_JSON_H_
