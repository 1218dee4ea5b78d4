// In-memory span recorder for the traced run. A span is a name, a start and an
// end on the monotonic clock (shared by every process on the host, so spans
// from trial processes line up with run.py's), and the id of the span
// that caused it. Spans stay in memory until the process prints them; run.py
// gathers them into one Chrome trace-event file. A disabled tracer records
// nothing, so untraced trials pay one branch per span.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int id = 0;
    int parent = 0;  // 0: caused by the process's caller
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (0 when disabled).
  int Begin(const std::string& name, int parent = 0) {
    if (!enabled_) {
      return 0;
    }
    spans_.push_back({name, MonotonicNs(), 0, static_cast<int>(spans_.size()) + 1,
                      parent});
    return spans_.back().id;
  }
  void End(int id) {
    if (id > 0) {
      spans_[static_cast<size_t>(id) - 1].end_ns = MonotonicNs();
    }
  }

  // JSON array of the recorded spans.
  std::string Json() const {
    std::string out = "[";
    char buf[256];
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                    "\"id\":%d,\"parent\":%d}",
                    out.size() > 1 ? "," : "", s.name.c_str(),
                    static_cast<long long>(s.start_ns),
                    static_cast<long long>(s.end_ns), s.id, s.parent);
      out += buf;
    }
    return out + "]";
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Records one span over its scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent = 0)
      : tracer_(tracer), id_(tracer.Begin(name, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
