#ifndef TWRS_PERFBENCH_TRACE_H_
#define TWRS_PERFBENCH_TRACE_H_

// Span recorder of the traced run. Spans are opened and closed by the
// benchmark around its own calls into the library, kept in memory, and
// written out as JSON lines when the run ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t op = 0;      ///< operation id, shared by every span of one op
  uint32_t id = 0;      ///< unique within the trace
  int64_t parent = -1;  ///< id of the enclosing span, -1 for an op's root
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Trace {
 public:
  /// Opens a span of operation `op` under the innermost open span.
  uint32_t Begin(uint64_t op, const char* name) {
    Span span;
    span.op = op;
    span.id = static_cast<uint32_t>(spans_.size());
    span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    span.name = name;
    span.start_ns = Now();
    spans_.push_back(span);
    open_.push_back(span.id);
    return span.id;
  }

  /// Closes the innermost open span, which must be `id`; returns it.
  const Span& End(uint32_t id) {
    spans_[id].end_ns = Now();
    open_.pop_back();
    return spans_[id];
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Seconds of span `id` not covered by its direct children.
  double SelfSeconds(uint32_t id) const {
    double self = spans_[id].seconds();
    for (size_t i = id + 1; i < spans_.size(); ++i) {
      if (spans_[i].parent == static_cast<int64_t>(id)) {
        self -= spans_[i].seconds();
      }
    }
    return self;
  }

  /// Writes one JSON object per span. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"op\": %llu, \"id\": %u, \"parent\": %lld, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   static_cast<unsigned long long>(s.op), s.id,
                   static_cast<long long>(s.parent), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

}  // namespace perfbench

#endif  // TWRS_PERFBENCH_TRACE_H_
