#include "src/report/run_report.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "src/obs/chrome_trace.h"

namespace hypertune {

RunSummary Summarize(const RunResult& result, int num_levels) {
  RunSummary summary;
  summary.num_trials = result.history.num_trials();
  summary.best_objective = result.history.best_objective();
  summary.incumbent_test = result.history.incumbent_test();
  summary.elapsed_seconds = result.elapsed_seconds;
  summary.utilization = result.utilization;
  summary.total_evaluation_cost = result.history.TotalEvaluationCost();
  summary.num_failed_trials = result.history.num_failures();
  summary.num_retries = result.retries;
  summary.wasted_seconds = result.wasted_seconds;
  summary.crash_attempts = result.crash_attempts;
  summary.timeout_attempts = result.timeout_attempts;
  summary.worker_lost_attempts = result.worker_lost_attempts;
  summary.crash_trials =
      result.history.num_failures_of_kind(FailureKind::kCrash);
  summary.timeout_trials =
      result.history.num_failures_of_kind(FailureKind::kTimeout);
  summary.worker_lost_trials =
      result.history.num_failures_of_kind(FailureKind::kWorkerLost);
  summary.invalid_result_attempts = result.invalid_result_attempts;
  summary.invalid_result_trials =
      result.history.num_failures_of_kind(FailureKind::kInvalidResult);
  summary.worker_deaths = result.worker_deaths;
  summary.workers_lost_permanently = result.workers_lost_permanently;
  summary.quarantines = result.quarantines;
  summary.worker_down_seconds = result.worker_down_seconds;
  summary.speculative_attempts = result.speculative_attempts;
  summary.speculative_wins = result.speculative_wins;
  summary.speculative_losses = result.speculative_losses;
  summary.speculative_wasted_seconds = result.speculative_wasted_seconds;
  summary.trials_per_level.assign(
      static_cast<size_t>(num_levels > 0 ? num_levels : 1), 0);

  size_t promotions = 0;
  for (const TrialRecord& trial : result.history.trials()) {
    size_t bucket = trial.job.level >= 1
                        ? static_cast<size_t>(trial.job.level - 1)
                        : 0;
    if (bucket >= summary.trials_per_level.size()) {
      bucket = summary.trials_per_level.size() - 1;
    }
    ++summary.trials_per_level[bucket];
    if (trial.job.resume_from > 0.0) ++promotions;
  }
  if (summary.num_trials > 0) {
    summary.promotion_fraction =
        static_cast<double>(promotions) /
        static_cast<double>(summary.num_trials);
  }
  return summary;
}

Status WriteTrialsCsv(const RunResult& result, const ConfigurationSpace& space,
                      std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("null output stream");
  *out << "trial,worker,bracket,level,resource,start,end,objective,test";
  for (const Parameter& p : space.parameters()) {
    *out << ',' << p.name();
  }
  *out << '\n';
  int64_t index = 0;
  for (const TrialRecord& trial : result.history.trials()) {
    *out << index++ << ',' << trial.worker << ',' << trial.job.bracket << ','
         << trial.job.level << ',' << trial.job.resource << ','
         << trial.start_time << ',' << trial.end_time << ','
         << trial.result.objective << ',' << trial.result.test_objective;
    for (size_t d = 0; d < space.size() && d < trial.job.config.size(); ++d) {
      *out << ',' << space.parameter(d).FormatValue(trial.job.config[d]);
    }
    *out << '\n';
  }
  if (!out->good()) return Status::Internal("trials CSV write failed");
  return Status::Ok();
}

Status WriteCurveCsv(const RunResult& result, std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("null output stream");
  *out << "time,best_objective,incumbent_test\n";
  for (const CurvePoint& point : result.history.curve()) {
    *out << point.time << ',' << point.best_objective << ','
         << point.incumbent_test << '\n';
  }
  if (!out->good()) return Status::Internal("curve CSV write failed");
  return Status::Ok();
}

std::string FormatSummary(const RunSummary& summary) {
  std::ostringstream os;
  os << "trials: " << summary.num_trials
     << "  best objective: " << summary.best_objective
     << "  incumbent test: " << summary.incumbent_test << '\n';
  os << "elapsed: " << summary.elapsed_seconds
     << " s  utilization: " << summary.utilization * 100.0 << "%"
     << "  evaluation cost: " << summary.total_evaluation_cost << " s\n";
  os << "trials per level:";
  for (size_t i = 0; i < summary.trials_per_level.size(); ++i) {
    os << "  L" << (i + 1) << "=" << summary.trials_per_level[i];
  }
  os << "  promotions: " << summary.promotion_fraction * 100.0 << "%";
  if (summary.num_failed_trials > 0 || summary.num_retries > 0) {
    os << "\nfailed trials: " << summary.num_failed_trials << " (crash "
       << summary.crash_trials << ", timeout " << summary.timeout_trials
       << ", worker-lost " << summary.worker_lost_trials
       << ", invalid-result " << summary.invalid_result_trials << ")"
       << "  retries: " << summary.num_retries
       << "  wasted: " << summary.wasted_seconds << " s";
    os << "\nfailed attempts by kind: crash " << summary.crash_attempts
       << "  timeout " << summary.timeout_attempts << "  worker-lost "
       << summary.worker_lost_attempts << "  invalid-result "
       << summary.invalid_result_attempts;
  }
  if (summary.worker_deaths > 0 || summary.quarantines > 0) {
    os << "\nworker deaths: " << summary.worker_deaths << " ("
       << summary.workers_lost_permanently << " permanent)"
       << "  quarantines: " << summary.quarantines
       << "  down: " << summary.worker_down_seconds << " s";
  }
  if (summary.speculative_attempts > 0) {
    os << "\nspeculation: " << summary.speculative_attempts << " launched, "
       << summary.speculative_wins << " won, " << summary.speculative_losses
       << " cancelled, " << summary.speculative_wasted_seconds
       << " s duplicated work";
  }
  return os.str();
}

std::string FormatMetrics(const MetricsSnapshot& metrics) {
  std::ostringstream os;
  os << "metrics:";
  if (metrics.counters.empty() && metrics.gauges.empty() &&
      metrics.histograms.empty()) {
    os << " (none recorded)";
    return os.str();
  }
  const auto counter = [&metrics](const char* name) -> int64_t {
    const auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0 : it->second;
  };
  // Recovery accounting up front: whether this run resumed through the
  // checkpoint fast path or a full replay, and what a torn tail cost.
  const int64_t restored = counter("journal.checkpoint_restored");
  const int64_t suffix = counter("journal.replayed_suffix_records");
  const int64_t replayed = counter("journal.records_replayed");
  const int64_t torn_records = counter("journal.torn_tail_records");
  const int64_t torn_bytes = counter("journal.torn_tail_bytes");
  if (restored > 0 || replayed > 0 || torn_records > 0) {
    os << "\n  recovery: ";
    if (restored > 0) {
      os << "checkpoint fast path (" << suffix << " suffix records replayed)";
    } else if (replayed > 0) {
      os << "full replay (" << replayed << " records)";
    } else {
      os << "none";
    }
    if (torn_records > 0 || torn_bytes > 0) {
      os << ", torn tail dropped " << torn_records << " record"
         << (torn_records == 1 ? "" : "s") << " / " << torn_bytes << " bytes";
    }
  }
  for (const auto& [name, value] : metrics.counters) {
    os << "\n  " << name << ": " << value;
  }
  for (const auto& [name, value] : metrics.gauges) {
    os << "\n  " << name << ": " << value;
  }
  for (const auto& [name, hist] : metrics.histograms) {
    os << "\n  " << name << ": count " << hist.count << "  mean "
       << hist.Mean() << "  min " << hist.min << "  max " << hist.max;
  }
  return os.str();
}

Status SaveRunArtifacts(const RunResult& result,
                        const ConfigurationSpace& space,
                        const std::string& prefix) {
  {
    std::ofstream trials(prefix + "_trials.csv");
    if (!trials.is_open()) {
      return Status::Internal("cannot open " + prefix + "_trials.csv");
    }
    HT_RETURN_IF_ERROR(WriteTrialsCsv(result, space, &trials));
  }
  {
    std::ofstream curve(prefix + "_curve.csv");
    if (!curve.is_open()) {
      return Status::Internal("cannot open " + prefix + "_curve.csv");
    }
    HT_RETURN_IF_ERROR(WriteCurveCsv(result, &curve));
  }
  return Status::Ok();
}

Status SaveObservabilityArtifacts(const Observability& obs,
                                  const std::string& prefix) {
  HT_RETURN_IF_ERROR(SaveChromeTrace(obs.trace, prefix + "_trace.json"));
  HT_RETURN_IF_ERROR(
      SaveWorkerTimelineCsv(obs.trace, prefix + "_timeline.csv"));
  {
    std::ofstream metrics(prefix + "_metrics.txt");
    if (!metrics.is_open()) {
      return Status::Internal("cannot open " + prefix + "_metrics.txt");
    }
    metrics << FormatMetrics(obs.metrics.Snapshot()) << '\n';
    if (!metrics.good()) return Status::Internal("metrics write failed");
  }
  return Status::Ok();
}

}  // namespace hypertune
