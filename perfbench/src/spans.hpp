#pragma once

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into the library (single thread), kept
// in memory, and written out once when the run ends.

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the recorder was made
  double end_s = 0.0;
  long parent = -1;  ///< index of the enclosing span, -1 at the root
  double duration() const { return end_s - start_s; }
};

class SpanRecorder {
 public:
  /// Opens a span on construction and closes it on destruction. Spans
  /// nest by scope: the innermost open span is the parent of a new one.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::size_t index_ = 0;
  };

  SpanRecorder();

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t count(const std::string& name) const;
  /// Sum of the durations of every span called `name`.
  double total_s(const std::string& name) const;
  /// Sum over spans called `name` of their duration minus the time their
  /// direct children cover.
  double self_s(const std::string& name) const;
  /// One line per span: index, parent, name, start, end (seconds).
  void write_tsv(std::ostream& os) const;

 private:
  double now_s() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  long open_ = -1;  ///< innermost open span
};

}  // namespace perfbench
