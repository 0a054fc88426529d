#ifndef HYPERTUNE_REPORT_RUN_REPORT_H_
#define HYPERTUNE_REPORT_RUN_REPORT_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/config/space.h"
#include "src/obs/observability.h"
#include "src/runtime/run_options.h"

namespace hypertune {

/// Summary statistics of a finished run, the numbers a tuning service
/// would surface on a dashboard.
struct RunSummary {
  size_t num_trials = 0;
  double best_objective = 0.0;
  double incumbent_test = 0.0;
  double elapsed_seconds = 0.0;
  double utilization = 0.0;
  double total_evaluation_cost = 0.0;
  /// Completed evaluations per fidelity level (index 0 <-> level 1).
  std::vector<size_t> trials_per_level;
  /// Share of trials that were promotions (resumed from a checkpoint).
  double promotion_fraction = 0.0;
  /// Fault accounting: trials abandoned after exhausting retries, attempts
  /// requeued, and worker seconds burned by crashed/timed-out attempts.
  size_t num_failed_trials = 0;
  int64_t num_retries = 0;
  double wasted_seconds = 0.0;
  /// Failed attempts broken down by how they died.
  int64_t crash_attempts = 0;
  int64_t timeout_attempts = 0;
  int64_t worker_lost_attempts = 0;
  int64_t invalid_result_attempts = 0;
  /// Abandoned trials whose final attempt died with each kind.
  size_t crash_trials = 0;
  size_t timeout_trials = 0;
  size_t worker_lost_trials = 0;
  size_t invalid_result_trials = 0;
  /// Worker fault-domain accounting (see RunResult).
  int64_t worker_deaths = 0;
  int64_t workers_lost_permanently = 0;
  int64_t quarantines = 0;
  double worker_down_seconds = 0.0;
  /// Speculative straggler re-execution accounting (see RunResult).
  int64_t speculative_attempts = 0;
  int64_t speculative_wins = 0;
  int64_t speculative_losses = 0;
  double speculative_wasted_seconds = 0.0;
};

/// Computes the summary of `result`. `num_levels` sizes trials_per_level
/// (levels above it are counted into the last bucket).
RunSummary Summarize(const RunResult& result, int num_levels);

/// Writes all completed trials as CSV:
///   trial,worker,bracket,level,resource,start,end,objective,test,<params...>
/// Parameter columns are named from `space`. Returns a stream error as
/// Internal status.
[[nodiscard]]
Status WriteTrialsCsv(const RunResult& result, const ConfigurationSpace& space,
                      std::ostream* out);

/// Writes the anytime curve as CSV: time,best_objective,incumbent_test.
[[nodiscard]] Status WriteCurveCsv(const RunResult& result, std::ostream* out);

/// Renders the summary as a human-readable multi-line string.
std::string FormatSummary(const RunSummary& summary);

/// Renders a metrics snapshot as a human-readable section: counters and
/// gauges one per line (sorted by name), histograms with count/mean/min/max.
/// When the run resumed from a journal, a leading `recovery:` line
/// interprets the journal.* counters — checkpoint fast path vs. full
/// replay, suffix records replayed, and what a torn tail dropped.
/// Appended to FormatSummary output when a run was instrumented.
std::string FormatMetrics(const MetricsSnapshot& metrics);

/// Convenience: writes both CSVs to `<prefix>_trials.csv` /
/// `<prefix>_curve.csv` on disk.
[[nodiscard]] Status SaveRunArtifacts(const RunResult& result,
                        const ConfigurationSpace& space,
                        const std::string& prefix);

/// Writes an instrumented run's observability artifacts:
/// `<prefix>_trace.json` (Chrome trace_event JSON, loadable in
/// about:tracing / Perfetto), `<prefix>_timeline.csv` (per-worker
/// utilization timeline), and `<prefix>_metrics.txt` (FormatMetrics).
[[nodiscard]] Status SaveObservabilityArtifacts(const Observability& obs,
                                  const std::string& prefix);

}  // namespace hypertune

#endif  // HYPERTUNE_REPORT_RUN_REPORT_H_
