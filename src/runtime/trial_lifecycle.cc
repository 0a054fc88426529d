#include "src/runtime/trial_lifecycle.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/logging.h"
#include "src/runtime/journal.h"

namespace hypertune {

void RunResult::Finalize(int num_workers) {
  double capacity = elapsed_seconds * static_cast<double>(num_workers);
  idle_seconds = std::max(0.0, capacity - busy_seconds);
  double denominator = busy_seconds + idle_seconds;
  utilization = denominator > 0.0 ? busy_seconds / denominator : 0.0;
}

TrialLifecycle::TrialLifecycle(const RunOptions& options,
                               SchedulerInterface* scheduler,
                               const TuningProblem& problem,
                               std::function<double()> clock,
                               const SpeculationOptions& speculation,
                               TrialRetention retention)
    : options_(options),
      speculation_(speculation),
      full_resource_(problem.max_resource()),
      contract_(scheduler),
      // Every run audits the pull contract by default, so the whole test
      // suite doubles as a contract-conformance suite for the scheduler
      // under test.
      scheduler_(options.check_contract ? &contract_ : scheduler),
      obs_(options.obs.sink),
      journal_(options.journal) {
  HT_CHECK(options.num_workers >= 1) << "need at least one worker";
  result_.history.set_retention(retention);
  workers_.resize(static_cast<size_t>(options.num_workers));
  // The sink is threaded to the scheduler stack (the contract checker
  // forwards it inward and mirrors its own events) and to the journal.
  if (obs_ != nullptr) {
    obs_->trace.SetClock(std::move(clock));
    scheduler_->SetObservability(obs_);
  }
  if (journal_ != nullptr) journal_->SetObservability(options.obs);
}

std::optional<Job> TrialLifecycle::NextJob(double now) {
  std::optional<Job> job = scheduler_->NextJob();
  if (job.has_value()) {
    if (journal_ != nullptr) journal_->Decision(*job, now);
    ++in_flight_;
  }
  return job;
}

bool TrialLifecycle::Drained() const {
  return in_flight_ == 0 && scheduler_->Exhausted();
}

bool TrialLifecycle::stopped() const {
  return (options_.max_trials > 0 && completed_ >= options_.max_trials) ||
         (journal_ != nullptr && !journal_->ok());
}

void TrialLifecycle::Launch(const Job& job, int worker, bool speculative,
                            double duration, double now) {
  TraceJob(speculative ? TraceKind::kSpeculativeLaunch : TraceKind::kJobLaunch,
           job, worker, speculative, nullptr, 0.0,
           speculative ? "speculation.launched" : "jobs.launched");
  if (journal_ != nullptr) {
    journal_->Launch(job.job_id, job.attempt, worker, speculative, duration,
                     now);
  }
}

std::optional<double> TrialLifecycle::StragglerThreshold(int level) const {
  auto it = level_durations_.find(level);
  if (it == level_durations_.end() ||
      it->second.size() < speculation_.min_samples) {
    return std::nullopt;
  }
  const RankTree& tree = it->second;
  const double median = tree.key(tree.Kth((tree.size() - 1) / 2));
  return speculation_.speculation_factor * median;
}

bool TrialLifecycle::CanSpeculate(int64_t job_id) const {
  return duplicated_.count(job_id) == 0;
}

void TrialLifecycle::Speculate(const Job& job, int worker, double now) {
  if (journal_ != nullptr) journal_->Speculate(job.job_id, worker, now);
  duplicated_.insert(job.job_id);
  ++result_.speculative_attempts;
  if (options_.check_contract) contract_.NoteSpeculativeLaunch(job);
}

std::optional<TrialLifecycle::Retry> TrialLifecycle::Complete(
    const Job& job, const EvalOutcome& outcome, int worker, bool speculative,
    double start_time, double now, bool sibling_cancelled) {
  const double duration = now - start_time;
  result_.busy_seconds += duration;
  if (!std::isfinite(outcome.objective)) {
    // The single ingress for live results: a NaN or infinite objective
    // never reaches the scheduler or the measurement store. The duplicate
    // is retired first — a job-level failure must not be reported while
    // one is live.
    if (sibling_cancelled) AuditCopyLost(job);
    return Resolve(job, FailureKind::kInvalidResult, worker, speculative,
                   start_time, now);
  }
  if (speculative) ++result_.speculative_wins;

  EvalResult eval;
  eval.objective = outcome.objective;
  eval.test_objective = outcome.test_objective;
  eval.cost_seconds = duration;
  if (journal_ != nullptr) {
    journal_->Complete(job, eval, worker, start_time, now);
  }

  TrialRecord record;
  record.job = job;
  record.result = eval;
  record.start_time = start_time;
  record.end_time = now;
  record.worker = worker;
  record.speculative = speculative;
  result_.history.Record(record, job.resource >= full_resource_);
  if (options_.observer) options_.observer(record);

  if (obs_ != nullptr) {
    TraceJob(TraceKind::kJobComplete, job, worker, speculative, nullptr,
             eval.objective, "jobs.completed");
    if (speculative) obs_->metrics.Increment("speculation.wins");
    obs_->metrics.Observe("trial.duration_seconds", duration);
  }

  scheduler_->OnJobComplete(job, eval);
  if (sibling_cancelled) AuditCopyLost(job);
  workers_[worker].failure_streak = 0;
  job_failures_.erase(job.job_id);
  duplicated_.erase(job.job_id);
  if (speculation_.enabled()) level_durations_[job.level].Insert(duration);

  --in_flight_;
  ++completed_;
  if (journal_ != nullptr) {
    journal_->MaybeCheckpoint(*scheduler_, completed_, now);
  }
  return std::nullopt;
}

std::optional<TrialLifecycle::Retry> TrialLifecycle::Fail(
    const Job& job, FailureKind kind, int worker, bool speculative,
    double start_time, double now, bool sibling_live) {
  if (sibling_live) {
    // The scheduler hears nothing and no retry budget is consumed; the
    // sibling copy still carries the job.
    CopyLost(job, worker, speculative, start_time, now, /*audit=*/true);
    return std::nullopt;
  }
  result_.busy_seconds += now - start_time;
  return Resolve(job, kind, worker, speculative, start_time, now);
}

std::optional<TrialLifecycle::Retry> TrialLifecycle::Resolve(
    const Job& job, FailureKind kind, int worker, bool speculative,
    double start_time, double now) {
  const double burned = now - start_time;
  ++result_.failed_attempts;
  result_.wasted_seconds += burned;
  TraceJob(TraceKind::kJobFailed, job, worker, speculative,
           FailureKindName(kind), burned, "jobs.failed_attempts");
  switch (kind) {
    case FailureKind::kCrash:
      ++result_.crash_attempts;
      break;
    case FailureKind::kTimeout:
      ++result_.timeout_attempts;
      break;
    case FailureKind::kWorkerLost:
      ++result_.worker_lost_attempts;
      break;
    case FailureKind::kInvalidResult:
      ++result_.invalid_result_attempts;
      break;
  }

  int prior_failures = 0;
  auto it = job_failures_.find(job.job_id);
  if (it != job_failures_.end()) prior_failures = it->second;
  FailureInfo info;
  info.kind = kind;
  info.attempt = job.attempt;
  info.retries_remaining =
      kind == FailureKind::kInvalidResult
          ? 0
          : std::max(0, options_.faults.max_retries - prior_failures);
  info.wasted_seconds = burned;
  info.worker = worker;

  if (journal_ != nullptr) {
    journal_->Failed(job.job_id, job.attempt, kind, worker, burned, now);
  }
  if (scheduler_->OnJobFailed(job, info)) {
    ++result_.retries;
    const bool job_level = kind != FailureKind::kWorkerLost;
    if (job_level) job_failures_[job.job_id] = prior_failures + 1;
    Retry retry;
    retry.job = job;
    ++retry.job.attempt;
    TraceJob(TraceKind::kJobRequeued, retry.job, -1, false,
             FailureKindName(kind), 0.0, "jobs.requeued");
    if (job_level) {
      retry.delay = RetryDelay(options_.faults, options_.seed, job);
    }
    if (journal_ != nullptr) {
      journal_->Requeue(job.job_id, retry.job.attempt,
                        retry.delay > 0.0 ? now + retry.delay : now, now);
    }
    return retry;
  }

  ++result_.failed_trials;
  if (journal_ != nullptr) journal_->Abandon(job.job_id, job.attempt, now);
  TraceJob(TraceKind::kJobAbandoned, job, -1, false, FailureKindName(kind),
           0.0, "jobs.abandoned");
  TrialRecord record;
  record.job = job;
  record.result.cost_seconds = burned;
  record.start_time = start_time;
  record.end_time = now;
  record.worker = worker;
  record.failure_kind = kind;
  result_.history.RecordFailure(record);
  job_failures_.erase(job.job_id);
  duplicated_.erase(job.job_id);
  --in_flight_;
  return std::nullopt;
}

void TrialLifecycle::CopyLost(const Job& job, int worker, bool speculative,
                              double start_time, double now, bool audit) {
  const double burned = now - start_time;
  result_.busy_seconds += burned;
  ++result_.speculative_losses;
  result_.speculative_wasted_seconds += burned;
  TraceJob(TraceKind::kSpeculativeCopyLost, job, worker, speculative, nullptr,
           burned, "speculation.losses");
  if (audit) AuditCopyLost(job);
}

void TrialLifecycle::Truncate(const Job& job, int worker, bool speculative,
                              double busy_seconds) {
  result_.busy_seconds += busy_seconds;
  TraceJob(TraceKind::kJobTruncated, job, worker, speculative, nullptr, 0.0,
           "jobs.truncated");
}

void TrialLifecycle::WorkerDied(int worker, bool permanent, double now) {
  if (journal_ != nullptr) journal_->WorkerDeath(worker, permanent, now);
  ++result_.worker_deaths;
  if (permanent) ++result_.workers_lost_permanently;
  TraceWorker(TraceKind::kWorkerDeath, worker, 0.0, "workers.deaths");
  WorkerHealth& health = workers_[worker];
  if (health.quarantined) {
    // Death supersedes quarantine: close the quarantine window.
    health.quarantined = false;
    result_.worker_down_seconds += now - health.down_since;
  }
  health.dead = true;
  health.down_since = now;
  health.failure_streak = 0;
}

void TrialLifecycle::WorkerRecovered(int worker, double now) {
  if (journal_ != nullptr) journal_->WorkerRecover(worker, now);
  WorkerHealth& health = workers_[worker];
  health.dead = false;
  TraceWorker(TraceKind::kWorkerRecover, worker, 0.0, "workers.recoveries");
  result_.worker_down_seconds += now - health.down_since;
}

bool TrialLifecycle::QuarantineAfterFailure(int worker, double now) {
  WorkerHealth& health = workers_[worker];
  ++health.failure_streak;
  const WorkerFaultOptions& wf = options_.worker_faults;
  if (wf.quarantine_failures <= 0 || wf.quarantine_seconds <= 0.0 ||
      health.failure_streak < wf.quarantine_failures) {
    return false;
  }
  if (journal_ != nullptr) {
    journal_->QuarantineBegin(worker, now + wf.quarantine_seconds, now);
  }
  health.quarantined = true;
  health.failure_streak = 0;
  health.down_since = now;
  ++result_.quarantines;
  TraceWorker(TraceKind::kQuarantineBegin, worker, wf.quarantine_seconds,
              "workers.quarantines");
  return true;
}

void TrialLifecycle::QuarantineEnded(int worker, double now) {
  if (journal_ != nullptr) journal_->QuarantineEnd(worker, now);
  WorkerHealth& health = workers_[worker];
  health.quarantined = false;
  result_.worker_down_seconds += now - health.down_since;
  TraceWorker(TraceKind::kQuarantineEnd, worker, 0.0, nullptr);
}

RunResult TrialLifecycle::Finish(double elapsed) {
  result_.elapsed_seconds = elapsed;
  for (const WorkerHealth& health : workers_) {
    if (health.dead || health.quarantined) {
      result_.worker_down_seconds +=
          std::max(0.0, elapsed - health.down_since);
    }
  }
  result_.Finalize(options_.num_workers);
  if (journal_ != nullptr && journal_->ok()) journal_->RunEnd(result_);
  if (obs_ != nullptr) {
    obs_->metrics.SetGauge("run.elapsed_seconds", result_.elapsed_seconds);
    obs_->metrics.SetGauge("run.busy_seconds", result_.busy_seconds);
    obs_->metrics.SetGauge("run.utilization", result_.utilization);
    // Freeze the clock: the backend's installed clock reads its run frame,
    // which dies when Run returns.
    obs_->trace.SetClock([t = elapsed] { return t; });
  }
  return std::move(result_);
}

void TrialLifecycle::AuditCopyLost(const Job& job) {
  if (options_.check_contract) contract_.NoteSpeculativeCopyLost(job);
}

void TrialLifecycle::TraceJob(TraceKind kind, const Job& job, int worker,
                              bool speculative, const char* name, double value,
                              const char* counter) {
  if (obs_ == nullptr) return;
  TraceEvent e;
  e.kind = kind;
  e.worker = worker;
  e.job_id = job.job_id;
  e.level = job.level;
  e.bracket = job.bracket;
  e.attempt = job.attempt;
  e.speculative = speculative;
  if (name != nullptr) e.name = name;
  e.value = value;
  obs_->trace.Record(std::move(e));
  if (counter != nullptr) obs_->metrics.Increment(counter);
}

void TrialLifecycle::TraceWorker(TraceKind kind, int worker, double value,
                                 const char* counter) {
  if (obs_ == nullptr) return;
  TraceEvent e;
  e.kind = kind;
  e.worker = worker;
  e.value = value;
  obs_->trace.Record(std::move(e));
  if (counter != nullptr) obs_->metrics.Increment(counter);
}

}  // namespace hypertune
