#ifndef HYPERTUNE_RUNTIME_JOB_H_
#define HYPERTUNE_RUNTIME_JOB_H_

#include <cstdint>

#include "src/config/configuration.h"

namespace hypertune {

/// A unit of work handed to a worker: evaluate `config` with `resource`
/// units of training resource (epochs, subset fraction, ...).
struct Job {
  int64_t job_id = -1;
  Configuration config;
  /// Resource level index in [1, K] (K = highest fidelity).
  int level = 1;
  /// Target training resource in problem units.
  double resource = 0.0;
  /// Resource this configuration has already been trained with (checkpoint
  /// resume). The execution backend charges only the incremental cost.
  double resume_from = 0.0;
  /// Bracket that issued the job (-1 when bracket-less, e.g. full-fidelity
  /// BO).
  int bracket = -1;
  /// 1-based execution attempt. Schedulers always mint attempt 1; the
  /// execution backend bumps it when it re-runs the job after a failure, so
  /// a retried job keeps its job_id (the trial identity) while the fault
  /// model can draw independent outcomes per attempt.
  int attempt = 1;
};

/// How a worker attempt died.
enum class FailureKind {
  kCrash,       ///< the worker process crashed mid-evaluation
  kTimeout,     ///< the per-job watchdog killed a too-long evaluation
  kWorkerLost,  ///< the whole worker died, orphaning the in-flight attempt
  kInvalidResult,  ///< the evaluation returned a non-finite objective
};

/// Short human-readable name of a FailureKind ("crash" / "timeout" /
/// "worker-lost" / "invalid-result").
inline const char* FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kCrash:
      return "crash";
    case FailureKind::kTimeout:
      return "timeout";
    case FailureKind::kWorkerLost:
      return "worker-lost";
    case FailureKind::kInvalidResult:
      return "invalid-result";
  }
  return "?";
}

/// Details of a failed evaluation attempt, passed to
/// SchedulerInterface::OnJobFailed.
struct FailureInfo {
  FailureKind kind = FailureKind::kCrash;
  /// 1-based attempt number that failed.
  int attempt = 1;
  /// Retries the backend is still willing to grant this job under its
  /// configured retry cap (0 means the default policy abandons the trial).
  /// Worker-lost failures report the budget unchanged: node death is the
  /// cluster's fault, not the job's, so it never consumes a retry.
  int retries_remaining = 0;
  /// Worker seconds burned by the failed attempt.
  double wasted_seconds = 0.0;
  /// Worker that was executing the attempt (-1 when unknown).
  int worker = -1;
};

/// Result of evaluating a Job.
struct EvalResult {
  /// Validation objective, lower is better (error, perplexity, -AUC, ...).
  double objective = 0.0;
  /// Test-set metric of the same trained model (reported, never optimized).
  double test_objective = 0.0;
  /// Evaluation cost in seconds (simulated or measured), incremental.
  double cost_seconds = 0.0;
};

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_JOB_H_
