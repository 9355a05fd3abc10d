#include "spans.hpp"

#include <ostream>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_s() const {
  const auto elapsed = std::chrono::steady_clock::now() - origin_;
  return std::chrono::duration<double>(elapsed).count();
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  index_ = recorder_->spans_.size();
  recorder_->spans_.push_back(
      {std::move(name), recorder_->now_s(), 0.0, recorder_->open_});
  recorder_->open_ = static_cast<long>(index_);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  Span& span = recorder_->spans_[index_];
  span.end_s = recorder_->now_s();
  recorder_->open_ = span.parent;
}

std::size_t SpanRecorder::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

double SpanRecorder::total_s(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) total += s.duration();
  return total;
}

double SpanRecorder::self_s(const std::string& name) const {
  // Children of one parent are sequential (single thread), so the time
  // they cover is the sum of their durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_time[static_cast<std::size_t>(s.parent)] += s.duration();
  double self = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) self += spans_[i].duration() - child_time[i];
  return self;
}

void SpanRecorder::write_tsv(std::ostream& os) const {
  os << "index\tparent\tname\tstart_s\tend_s\n";
  os.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << '\t' << s.parent << '\t' << s.name << '\t' << s.start_s << '\t'
       << s.end_s << '\n';
  }
}

}  // namespace perfbench
