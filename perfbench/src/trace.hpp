#pragma once

/// @file trace.hpp
/// In-memory span recorder for the traced benchmark runs.
///
/// Spans are recorded from the benchmark's own code around its calls into
/// the twin's public API: name, start, end and the span that was open when
/// it began. They stay in memory until the run ends and are then written
/// out as TSV for the reducer (run.py), which derives self times and
/// coverage from them. A disabled tracer records nothing, so the untraced
/// operations of a run pay one branch per probe.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Stable id for a span name; call outside timed regions.
  std::uint32_t intern(const std::string& name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin(std::uint32_t name) {
    if (!enabled_) return;
    Record r;
    r.name = name;
    r.parent = open_.empty() ? -1 : open_.back();
    r.start_ns = now_ns();
    open_.push_back(static_cast<std::int32_t>(records_.size()));
    records_.push_back(r);
  }

  void end() {
    if (!enabled_ || open_.empty()) return;
    records_[static_cast<std::size_t>(open_.back())].end_ns = now_ns();
    open_.pop_back();
  }

  void reserve(std::size_t spans) { records_.reserve(spans); }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  /// Bytes the recorded spans occupy.
  [[nodiscard]] std::size_t bytes() const { return records_.size() * sizeof(Record); }

  /// Writes "id parent name start_ns end_ns" lines; false on I/O failure.
  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "%zu\t%d\t%s\t%lld\t%lld\n", i, r.parent, names_[r.name].c_str(),
                   static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns));
    }
    return std::fclose(f) == 0;
  }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_ = false;
  std::vector<std::string> names_;
  std::vector<Record> records_;
  std::vector<std::int32_t> open_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::uint32_t name) : tracer_(tracer) { tracer_.begin(name); }
  ~ScopedSpan() { tracer_.end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace perfbench
