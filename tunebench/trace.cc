#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

namespace tunebench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SpanRecorder::Begin(const char* name, int64_t job_id) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.job_id = job_id;
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  // Stamp last so the bookkeeping above is not charged to the span.
  spans_.back().start = Now();
  return id;
}

void SpanRecorder::End(int64_t id, int64_t job_id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = Now();
  if (job_id >= 0) span.job_id = job_id;
  open_.pop_back();
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "name,start_us,end_us,parent,job_id\n";
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) {
    out << s.name << ',' << (s.start - origin) * 1e6 << ','
        << (s.end - origin) * 1e6 << ',' << s.parent << ',' << s.job_id
        << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size()) {
      children[static_cast<size_t>(parent)].push_back(i);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::vector<std::pair<double, double>> covered;
    for (size_t c : children[i]) {
      const double lo = std::max(span.start, spans[c].start);
      const double hi = std::min(span.end, spans[c].end);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double child_time = 0.0;
    double reach = span.start;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) child_time += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (span.end - span.start) - child_time;
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.calls;
    t.total_s += spans[i].end - spans[i].start;
    t.self_s += self[i];
  }
  return totals;
}

namespace {

/// Zero-based nearest-rank index of `percentile` among `n` sorted samples.
/// The epsilon keeps a product such as 99.9 / 100 * 1000 =
/// 999.0000000000001 from rounding up a whole rank.
size_t RankIndex(double percentile, size_t n) {
  const double rank =
      std::ceil(percentile / 100.0 * static_cast<double>(n) - 1e-9);
  return rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
}

}  // namespace

double Percentile(std::vector<double> samples, double percentile) {
  if (samples.empty()) return NAN;
  const size_t index = RankIndex(percentile, samples.size());
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

std::optional<Tail> TailLatency(std::vector<double> samples) {
  static constexpr double kLadder[] = {95.0, 90.0, 50.0};
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  for (double p : kLadder) {
    const size_t index = RankIndex(p, n);
    if (n - 1 - index >= 10) return Tail{p, samples[index]};
  }
  return std::nullopt;
}

double Median(std::vector<double> values) {
  if (values.empty()) return NAN;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

}  // namespace tunebench
