#ifndef HYPERTUNE_RUNTIME_TRIAL_LIFECYCLE_H_
#define HYPERTUNE_RUNTIME_TRIAL_LIFECYCLE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rank_tree.h"
#include "src/problems/problem.h"
#include "src/runtime/run_options.h"
#include "src/runtime/scheduler_contract.h"
#include "src/runtime/scheduler_interface.h"

namespace hypertune {

/// The attempt lifecycle every execution backend shares: one copy of the
/// bookkeeping that turns a backend's raw events (a job launched on a
/// worker, an attempt finished or died, a worker died or came back) into
/// scheduler notifications, retry verdicts, RunResult accounting, journal
/// records and trace/metrics events.
///
/// A backend keeps only time and execution — the simulator's event queue,
/// the thread backend's worker threads, the process backend's subprocess
/// supervisor — and reports each transition here, passing its own clock
/// reading as `now`. Every transition is journaled (or, on a resumed run,
/// byte-verified against the loaded stream) before it is applied, and
/// none draws a random number except through the keyed fault model, so
/// the simulator's runs stay a pure function of their options and
/// journal-on runs stay bit-identical to journal-off ones.
///
/// Not internally synchronized: the simulator and the process supervisor
/// call it from one thread, and the thread backend holds it GUARDED_BY its
/// run-state mutex.
class TrialLifecycle {
 public:
  /// A failed attempt's job that the scheduler asked to run again.
  struct Retry {
    /// The same job at the next attempt number.
    Job job;
    /// Backoff before it may start; 0 means immediately. Worker loss never
    /// backs off (a node death is the cluster's fault, not the job's).
    double delay = 0.0;
  };

  /// Wraps `scheduler` in a contract checker when options.check_contract is
  /// set, installs `clock` as the trace clock, and threads the
  /// observability sink to the scheduler stack and the journal. `options`
  /// is borrowed for the lifetime of the lifecycle. `speculation` enables
  /// the per-level running median behind StragglerThreshold.
  TrialLifecycle(const RunOptions& options, SchedulerInterface* scheduler,
                 const TuningProblem& problem, std::function<double()> clock,
                 const SpeculationOptions& speculation = {},
                 TrialRetention retention = TrialRetention::kFull);

  TrialLifecycle(const TrialLifecycle&) = delete;
  TrialLifecycle& operator=(const TrialLifecycle&) = delete;

  // --- Scheduler side. ---

  /// The scheduler's next job (journaled as a decision), or nullopt at a
  /// barrier or when the scheduler is exhausted.
  std::optional<Job> NextJob(double now);
  /// True when no issued job is unresolved (running, or waiting for a
  /// retry) and the scheduler will never issue another: the run is over.
  bool Drained() const;
  /// True once the trial cap is reached or the journal latched an error
  /// (applying unjournaled transitions would defeat the write-ahead
  /// guarantee). The backend stops launching and ends the run.
  bool stopped() const;

  // --- Attempts. A job runs as one attempt at a time, plus at most one
  // speculative duplicate of it; `speculative` marks the duplicate copy and
  // `start_time` is when the copy started. ---

  /// Records a copy of `job` starting on `worker` for `duration` seconds
  /// (the planned occupancy; 0 when the backend cannot know it).
  void Launch(const Job& job, int worker, bool speculative, double duration,
              double now);
  /// Straggler cutoff for an attempt at `level`: speculation_factor x the
  /// median completed-attempt duration there, once min_samples attempts
  /// completed; nullopt before that or when speculation is off.
  std::optional<double> StragglerThreshold(int level) const;
  /// True while `job_id` has not used its one speculative duplicate.
  bool CanSpeculate(int64_t job_id) const;
  /// Records the decision to duplicate `job`, which runs on `worker`.
  void Speculate(const Job& job, int worker, double now);

  /// Delivers a finished copy's result: journal, history, observer, trace,
  /// scheduler, checkpoint. `sibling_cancelled` says a still-racing copy of
  /// the job was cancelled in favour of this one (the backend accounts it
  /// with CopyLost). A non-finite objective is not delivered: it fails the
  /// attempt as kInvalidResult with no retries remaining, so the returned
  /// Retry is engaged only if the scheduler still asks to requeue.
  std::optional<Retry> Complete(const Job& job, const EvalOutcome& outcome,
                                int worker, bool speculative,
                                double start_time, double now,
                                bool sibling_cancelled);
  /// Reports a failed copy. While a sibling copy races on (`sibling_live`)
  /// the copy dies silently (CopyLost); otherwise the scheduler decides
  /// between a Retry (returned) and abandonment. Only crash, timeout and
  /// invalid results consume the job's retry budget.
  std::optional<Retry> Fail(const Job& job, FailureKind kind, int worker,
                            bool speculative, double start_time, double now,
                            bool sibling_live);
  /// Retires a copy whose sibling lives on or already won. `audit` tells
  /// the contract checker now; a copy cancelled by its sibling's completion
  /// was already retired there.
  void CopyLost(const Job& job, int worker, bool speculative,
                double start_time, double now, bool audit);
  /// Records a copy still in flight when the run ended, charging
  /// `busy_seconds` of it to the run.
  void Truncate(const Job& job, int worker, bool speculative,
                double busy_seconds);

  // --- Workers. ---

  /// Records `worker`'s death (closing an open quarantine window). Its
  /// in-flight copy, if any, is the backend's to report as kWorkerLost.
  void WorkerDied(int worker, bool permanent, double now);
  void WorkerRecovered(int worker, double now);
  /// Counts a job-level failure against `worker`'s streak. When the streak
  /// trips the quarantine policy the quarantine is recorded and this
  /// returns true: the backend withholds the worker for
  /// worker_faults.quarantine_seconds, then calls QuarantineEnded.
  bool QuarantineAfterFailure(int worker, double now);
  void QuarantineEnded(int worker, double now);
  bool quarantined(int worker) const { return workers_[worker].quarantined; }

  /// Ends the run at backend time `elapsed`: closes open down windows,
  /// derives utilization, seals the journal, publishes the run gauges and
  /// freezes the trace clock. Call once, last.
  RunResult Finish(double elapsed);

 private:
  /// Per-worker fault-domain accounting.
  struct WorkerHealth {
    bool dead = false;
    bool quarantined = false;
    /// When the current down or quarantine window started.
    double down_since = 0.0;
    /// Consecutive job-level failures (the quarantine trigger).
    int failure_streak = 0;
  };

  /// The failure verdict for the last live copy of `job`.
  std::optional<Retry> Resolve(const Job& job, FailureKind kind, int worker,
                               bool speculative, double start_time,
                               double now);
  /// Tells the contract checker a duplicate of `job` was retired.
  void AuditCopyLost(const Job& job);
  /// Records a job-scoped trace event and bumps `counter` (when non-null).
  void TraceJob(TraceKind kind, const Job& job, int worker, bool speculative,
                const char* name, double value, const char* counter);
  /// Records a worker-scoped trace event and bumps `counter` (when
  /// non-null).
  void TraceWorker(TraceKind kind, int worker, double value,
                   const char* counter);

  const RunOptions& options_;
  const SpeculationOptions speculation_;
  const double full_resource_;
  SchedulerContractChecker contract_;
  /// The scheduler every call goes through: contract_ or the raw one.
  SchedulerInterface* const scheduler_;
  Observability* const obs_;
  RunJournal* const journal_;

  RunResult result_;
  std::vector<WorkerHealth> workers_;
  /// Issued jobs not yet completed or abandoned.
  int64_t in_flight_ = 0;
  int64_t completed_ = 0;
  /// Job-level failures consumed per unresolved job. Worker loss never
  /// registers here, which is how it avoids burning the job's retry budget
  /// while the attempt number still advances.
  std::unordered_map<int64_t, int> job_failures_;
  /// Jobs that already used their one speculative duplicate.
  std::unordered_set<int64_t> duplicated_;
  /// Completed-attempt durations per fidelity level, in a rank tree so the
  /// running median behind straggler detection is O(log n) to read and to
  /// update. Fed only while speculation is on.
  std::unordered_map<int, RankTree> level_durations_;
};

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_TRIAL_LIFECYCLE_H_
