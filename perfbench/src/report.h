// Small helpers shared by the benchmark's programs: order statistics and
// a flat one-line JSON object writer.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 1]) of `v`; reorders `v`. 0 if empty.
template <typename T>
double Percentile(std::vector<T>* v, double p) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * v->size()));
  rank = std::clamp<size_t>(rank, 1, v->size()) - 1;
  std::nth_element(v->begin(), v->begin() + rank, v->end());
  return static_cast<double>((*v)[rank]);
}

inline double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

class JsonLine {
 public:
  JsonLine& Num(const std::string& key, double value) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.10g", std::isfinite(value) ? value : 0.0);
    return Raw(key, buf);
  }
  JsonLine& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonLine& Str(const std::string& key, const std::string& value) {
    std::string q = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') q.push_back('\\');
      q.push_back(c == '\n' ? ' ' : c);
    }
    return Raw(key, q + "\"");
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  JsonLine& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
