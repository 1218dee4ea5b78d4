// One-line JSON object writer for the harness's reports to run.py. Numbers are
// printed with all their digits; a non-finite number becomes null, which
// run.py treats as a failed measurement.
#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  void Num(const char* key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    Raw(key, buf);
  }
  void Int(const char* key, uint64_t value) {
    Raw(key, std::to_string(value));
  }
  void Hex(const char* key, uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                  static_cast<unsigned long long>(value));
    Raw(key, buf);
  }
  void StringList(const char* key, const std::vector<std::string>& values) {
    std::string list = "[";
    for (const std::string& v : values) {
      list += (list.size() > 1 ? ",\"" : "\"") + v + "\"";
    }
    Raw(key, list + "]");
  }
  // `json` must already be valid JSON.
  void Raw(const char* key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + std::string(key) + "\":" + json;
  }
  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
