#ifndef TUNEBENCH_TRACE_H_
#define TUNEBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tunebench {

/// Host monotonic time in seconds (std::chrono::steady_clock).
double Now();

/// One timed call across a layer boundary. `parent` indexes the span that
/// was open when this one began (-1 for a root); `job_id` is the trial the
/// call served (-1 when it serves none).
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;
  int64_t job_id = -1;
};

/// In-memory span store for one single-threaded run. Spans are kept until
/// the benchmark writes them out.
class SpanRecorder {
 public:
  /// Opens a span named `name` (a string literal) and returns its id.
  int64_t Begin(const char* name, int64_t job_id = -1);
  /// Closes the innermost open span, `id`; a `job_id` >= 0 replaces the one
  /// given to Begin (NextJob learns its trial only when it returns).
  void End(int64_t id, int64_t job_id = -1);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes name,start_us,end_us,parent,job_id rows.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

struct SpanTotals {
  int64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Calls, total and self seconds per span name.
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

/// A latency tail: the value at `percentile`.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
};

/// The nearest-rank `percentile` of `samples`; NaN if empty.
double Percentile(std::vector<double> samples, double percentile);

/// The highest percentile of {50, 90, 95} that has at least 10 samples
/// strictly beyond it (nearest-rank), or nullopt when even the median has
/// fewer. The ladder stops at p95: further out, microsecond-scale calls
/// are ranked more by host interrupts, preemption and cache contention
/// than by the program.
std::optional<Tail> TailLatency(std::vector<double> samples);

/// Median of `values` (mean of the middle two for even sizes); NaN if empty.
double Median(std::vector<double> values);

}  // namespace tunebench

#endif  // TUNEBENCH_TRACE_H_
