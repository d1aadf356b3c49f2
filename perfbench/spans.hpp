// In-memory span recorder for the traced run, written at exit as Chrome
// trace-event JSON (loads in Perfetto and chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using clock = std::chrono::steady_clock;

  SpanRecorder() : origin_(clock::now()) {}

  /// Record one finished span; `parent` is the id of the span that
  /// caused it (0 for a root). Returns the new span's id. Thread-safe.
  std::uint64_t add(const std::string& name, clock::time_point start,
                    clock::time_point end, std::uint64_t parent = 0) {
    const std::uint64_t id = reserve();
    add_reserved(id, name, start, end, parent);
    return id;
  }

  /// Reserve an id for a span whose end is not known yet (a parent that
  /// children must point at); close it later with `add_reserved`.
  std::uint64_t reserve() {
    const std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
  }
  void add_reserved(std::uint64_t id, const std::string& name,
                    clock::time_point start, clock::time_point end,
                    std::uint64_t parent = 0) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto tid_it =
        tids_.emplace(std::this_thread::get_id(), tids_.size() + 1).first;
    spans_.push_back({name, micros(start), micros(end) - micros(start),
                      tid_it->second, id, parent});
  }

  /// Write every span as a complete ("X") trace event. Returns false
  /// when the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    out << std::fixed << std::setprecision(3);  // microseconds, ns resolution
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (const Span& s : spans_) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"name\":\"" << escape(s.name) << "\",\"cat\":\"perfbench\","
          << "\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << s.ts_us
          << ",\"dur\":" << s.dur_us << ",\"args\":{\"id\":" << s.id
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double ts_us;
    double dur_us;
    std::size_t tid;
    std::uint64_t id;
    std::uint64_t parent;
  };

  double micros(clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  static std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::size_t> tids_;
  std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
