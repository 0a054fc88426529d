#include "src/runtime/thread_cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_annotations.h"
#include "src/runtime/trial_lifecycle.h"

namespace hypertune {
namespace {

/// Granularity of interruptible sleeps: kill flags and worker death times
/// are checked between slices of this length.
constexpr double kSleepSliceSeconds = 0.001;

/// Why a sliced sleep ended.
enum class SleepOutcome {
  kFinished,    ///< the full duration elapsed
  kKilled,      ///< the copy's kill flag was set (speculative loser)
  kWorkerDied,  ///< the worker's wall-clock uptime expired mid-attempt
};

/// One job currently executing on some worker(s): the primary copy, plus a
/// speculative duplicate while one races. Guarded by RunState::mu.
struct ActiveAttempt {
  Job job;
  /// Worker running the primary copy.
  int worker = -1;
  /// Wall time the primary copy started (drives straggler detection).
  double start_time = 0.0;
  /// Copies of this attempt currently executing (1, or 2 while a
  /// speculative duplicate races its primary).
  int live_copies = 1;
  /// A copy already delivered the job's completion or failure; remaining
  /// copies are losers and only settle their accounting.
  bool resolved = false;
  /// Kill flags: slot 0 is the primary copy, slot 1 the duplicate. Written
  /// under the lock, read lock-free inside sliced sleeps.
  std::shared_ptr<std::atomic<bool>> kills[2];
};

/// Everything the worker threads share. Each field below `mu` is guarded
/// by it, so a Clang -Wthread-safety build proves no worker ever touches
/// the lifecycle or the retry queue off-lock. The lifecycle is the only
/// path to the scheduler, so the SchedulerInterface serialization contract
/// ("schedulers are NOT internally synchronized; ThreadCluster serializes
/// calls with its own mutex") is enforced at compile time, not just
/// promised in a comment — and so is the observer's promise to run under
/// the lock.
struct RunState {
  RunState(const ThreadClusterOptions& options, SchedulerInterface* scheduler,
           const TuningProblem& problem, std::function<double()> clock)
      : lifecycle(options, scheduler, problem, std::move(clock),
                  options.speculation) {}

  Mutex mu{LockRank::kClusterRunState, "cluster.run_state"};
  CondVar cv;
  bool stop GUARDED_BY(mu) = false;
  /// Requeued jobs and the wall time at which their backoff expires.
  std::deque<std::pair<double, Job>> retry_queue GUARDED_BY(mu);
  /// Jobs currently executing, keyed by job_id.
  std::unordered_map<int64_t, ActiveAttempt> active GUARDED_BY(mu);
  TrialLifecycle lifecycle GUARDED_BY(mu);
};

}  // namespace

RunResult ThreadCluster::Run(SchedulerInterface* scheduler,
                             const TuningProblem& problem) {
  // Trial records and trace events share the run-relative wall clock (this
  // file's sanctioned steady-clock seam). Recording consumes no RNG and
  // perturbs no decision.
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // The contract audit sits inside the serialized scheduler section, so it
  // needs no synchronization of its own.
  RunState state(options_, scheduler, problem, elapsed);
  const double budget = options_.time_budget_seconds;

  // Sleeps `seconds` in slices, aborting early when the copy's kill flag is
  // set or the worker's death time passes. Zero-length sleeps always
  // finish: a dead worker is reaped at the top of its pull loop instead.
  auto sliced_sleep = [&](double seconds, const std::atomic<bool>* kill,
                          double death_at) {
    double end = elapsed() + seconds;
    for (;;) {
      double remaining = end - elapsed();
      if (remaining <= 0.0) return SleepOutcome::kFinished;
      if (kill != nullptr && kill->load()) return SleepOutcome::kKilled;
      if (elapsed() >= death_at) return SleepOutcome::kWorkerDied;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(remaining, kSleepSliceSeconds)));
    }
  };

  // Sleeps out a downtime/quarantine window; returns false when the run
  // stopped (budget or stop flag) before the window elapsed. The window
  // then stays open and TrialLifecycle::Finish closes it at run end.
  auto wait_out = [&](double seconds) {
    double end = elapsed() + seconds;
    for (;;) {
      if (elapsed() >= budget) return false;
      {
        MutexLock lock(state.mu);
        if (state.stop) return false;
      }
      double remaining = end - elapsed();
      if (remaining <= 0.0) return true;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(remaining, 2 * kSleepSliceSeconds)));
    }
  };

  auto worker_loop = [&](int worker_id) {
    WorkerLifetime lifetime = PlanWorkerLifetime(options_.worker_faults,
                                                 options_.seed, worker_id, 0);
    int64_t incarnation = 0;
    double death_at = lifetime.uptime_seconds;  // +inf when faults are off

    // After a death: sleeps out the downtime and rejoins as the next
    // incarnation. False when the death was permanent or the run ended
    // first.
    auto rejoin = [&]() {
      if (lifetime.permanent || !wait_out(lifetime.downtime_seconds)) {
        return false;
      }
      {
        MutexLock lock(state.mu);
        state.lifecycle.WorkerRecovered(worker_id, elapsed());
      }
      ++incarnation;
      lifetime = PlanWorkerLifetime(options_.worker_faults, options_.seed,
                                    worker_id, incarnation);
      death_at = elapsed() + lifetime.uptime_seconds;
      return true;
    };

    for (;;) {
      Job job;
      bool speculative_copy = false;
      bool died_idle = false;
      std::shared_ptr<std::atomic<bool>> my_kill;
      double job_start = 0.0;
      AttemptPlan plan;
      {
        MutexLock lock(state.mu);
        TrialLifecycle& lifecycle = state.lifecycle;
        for (;;) {
          if (lifecycle.stopped()) state.stop = true;
          if (state.stop || elapsed() >= budget) return;
          if (elapsed() >= death_at) {
            died_idle = true;
            break;
          }
          // Requeued jobs whose backoff expired take priority; they are
          // still in flight for the lifecycle.
          auto ready = state.retry_queue.end();
          for (auto it = state.retry_queue.begin();
               it != state.retry_queue.end(); ++it) {
            if (it->first <= elapsed()) {
              ready = it;
              break;
            }
          }
          if (ready != state.retry_queue.end()) {
            job = std::move(ready->second);
            state.retry_queue.erase(ready);
            break;
          }
          std::optional<Job> next = lifecycle.NextJob(elapsed());
          if (next.has_value()) {
            job = *std::move(next);
            break;
          }
          // No fresh work: duplicate the longest-overdue straggler instead
          // of idling (smallest job_id first, for determinism of choice).
          if (options_.speculation.enabled()) {
            int64_t straggler = -1;
            for (const auto& [id, entry] : state.active) {
              if (entry.resolved || entry.live_copies != 1 ||
                  !lifecycle.CanSpeculate(id)) {
                continue;
              }
              std::optional<double> threshold =
                  lifecycle.StragglerThreshold(entry.job.level);
              if (threshold.has_value() &&
                  elapsed() - entry.start_time > *threshold &&
                  (straggler < 0 || id < straggler)) {
                straggler = id;
              }
            }
            if (straggler >= 0) {
              ActiveAttempt& entry = state.active[straggler];
              lifecycle.Speculate(entry.job, entry.worker, elapsed());
              entry.live_copies = 2;
              entry.kills[1] = std::make_shared<std::atomic<bool>>(false);
              job = entry.job;
              speculative_copy = true;
              my_kill = entry.kills[1];
              break;
            }
          }
          if (lifecycle.Drained()) {
            state.stop = true;
            state.cv.NotifyAll();
            return;
          }
          // Barrier (or pending backoff): wait for a completion or the
          // budget and retry.
          state.cv.WaitFor(state.mu, 0.002);
        }
        if (died_idle) {
          lifecycle.WorkerDied(worker_id, lifetime.permanent, elapsed());
        } else {
          job_start = elapsed();
          double nominal_sleep = 0.0;
          if (options_.cost_sleep_scale > 0.0) {
            double cost = problem.EvaluationCost(job.config, job.resource) -
                          problem.EvaluationCost(job.config, job.resume_from);
            nominal_sleep = std::max(0.0, cost) * options_.cost_sleep_scale;
          }
          plan = PlanAttempt(options_.faults, options_.seed, job,
                             nominal_sleep,
                             speculative_copy ? kSpeculativeStreamSalt : 0);
          if (!speculative_copy) {
            // Register the primary copy of this attempt.
            ActiveAttempt entry;
            entry.job = job;
            entry.worker = worker_id;
            entry.start_time = job_start;
            entry.kills[0] = std::make_shared<std::atomic<bool>>(false);
            my_kill = entry.kills[0];
            state.active[job.job_id] = std::move(entry);
          }
          lifecycle.Launch(job, worker_id, speculative_copy, plan.duration,
                           job_start);
        }
      }

      if (died_idle) {
        state.cv.NotifyAll();
        if (!rejoin()) return;
        continue;
      }

      // Evaluate up front (cheap synthetic problems), then sleep out the
      // attempt's planned occupancy; the result is discarded if the attempt
      // is doomed, cancelled, or orphaned.
      uint64_t noise_seed = CombineSeeds(options_.seed, job.config.Hash());
      EvalOutcome outcome =
          problem.Evaluate(job.config, job.resource, noise_seed);

      SleepOutcome slept =
          sliced_sleep(plan.duration, my_kill.get(), death_at);
      const double job_end = elapsed();
      const bool worker_died = slept == SleepOutcome::kWorkerDied;
      bool quarantined = false;

      {
        MutexLock lock(state.mu);
        TrialLifecycle& lifecycle = state.lifecycle;
        auto it = state.active.find(job.job_id);
        ActiveAttempt* entry = it != state.active.end() &&
                                       it->second.job.attempt == job.attempt
                                   ? &it->second
                                   : nullptr;
        const bool sibling_live = entry != nullptr && entry->live_copies > 1;
        std::optional<TrialLifecycle::Retry> retry;
        if (worker_died) {
          lifecycle.WorkerDied(worker_id, lifetime.permanent, job_end);
        }
        if ((entry != nullptr && entry->resolved) ||
            slept == SleepOutcome::kKilled) {
          // We lost the speculation race (cancelled, or finished after the
          // sibling delivered). Accounting only: the winner already
          // reported the job and retired this copy with the checker.
          lifecycle.CopyLost(job, worker_id, speculative_copy, job_start,
                             job_end, /*audit=*/false);
        } else if (worker_died) {
          retry = lifecycle.Fail(job, FailureKind::kWorkerLost, worker_id,
                                 speculative_copy, job_start, job_end,
                                 sibling_live);
        } else if (plan.failed) {
          retry = lifecycle.Fail(job, plan.kind, worker_id, speculative_copy,
                                 job_start, job_end, sibling_live);
          // A copy lost while its sibling races on still counts toward the
          // worker's quarantine streak.
          quarantined = lifecycle.QuarantineAfterFailure(worker_id, job_end);
        } else {
          retry = lifecycle.Complete(job, outcome, worker_id, speculative_copy,
                                     job_start, job_end, sibling_live);
          if (entry != nullptr) {
            entry->resolved = true;
            // First finisher wins: the racing sibling is cancelled via its
            // kill flag and settles its own accounting when it wakes.
            if (sibling_live) {
              entry->kills[speculative_copy ? 0 : 1]->store(true);
            }
          }
        }
        if (retry.has_value()) {
          state.retry_queue.emplace_back(job_end + retry->delay,
                                         std::move(retry->job));
        }
        if (lifecycle.stopped()) state.stop = true;
        if (entry != nullptr && --entry->live_copies <= 0) {
          state.active.erase(it);
        }
      }
      state.cv.NotifyAll();

      if (worker_died) {
        if (!rejoin()) return;
        continue;
      }
      if (quarantined) {
        if (!wait_out(options_.worker_faults.quarantine_seconds)) return;
        MutexLock lock(state.mu);
        state.lifecycle.QuarantineEnded(worker_id, elapsed());
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    threads.emplace_back(worker_loop, w);
  }
  for (auto& t : threads) t.join();

  // In-flight evaluations are allowed to finish past the budget, so report
  // the true elapsed time (keeps utilization = busy/capacity <= 1).
  MutexLock lock(state.mu);
  return state.lifecycle.Finish(elapsed());
}

}  // namespace hypertune
