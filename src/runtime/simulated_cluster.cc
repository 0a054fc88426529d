#include "src/runtime/simulated_cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/calendar_queue.h"
#include "src/common/rng.h"
#include "src/runtime/trial_lifecycle.h"

namespace hypertune {
namespace {

/// What an event in the simulator's queue resolves to.
enum class EventKind {
  kWorkerDeath,    ///< a worker incarnation's seeded uptime expired
  kWorkerRecover,  ///< a dead worker's downtime expired, it rejoins
  kQuarantineEnd,  ///< a quarantined worker's backoff expired, it rejoins
  kRetryReady,     ///< a requeued job's backoff expired (occupies no worker)
  kComplete,       ///< evaluation finished, report to the scheduler
  kCrash,          ///< worker crashed partway through the attempt
  kTimeout,        ///< watchdog killed the attempt
  kSpeculate,      ///< straggler watchdog: consider duplicating an attempt
};

/// Tie-break rank for events at the same virtual time: worker deaths first
/// (an attempt ending exactly at its worker's death time is lost), then
/// rejoins, then retry timers, then attempt outcomes, then straggler
/// watchdogs. Fault-off queues only ever hold kComplete events, so ordering
/// there collapses to the pre-fault (end_time, job_id) order.
int EventRank(EventKind kind) {
  switch (kind) {
    case EventKind::kWorkerDeath:
      return 0;
    case EventKind::kWorkerRecover:
      return 1;
    case EventKind::kQuarantineEnd:
      return 2;
    case EventKind::kRetryReady:
      return 3;
    case EventKind::kComplete:
      return 4;
    case EventKind::kCrash:
      return 5;
    case EventKind::kTimeout:
      return 6;
    case EventKind::kSpeculate:
      return 7;
  }
  return 8;
}

/// A queued simulator event — 40 bytes, no heap payload. Attempt events
/// (kComplete/kCrash/kTimeout) and kSpeculate carry the epoch of the
/// worker's attempt at push time in `token`; they are stale — skipped
/// without effect — once the worker's epoch moved on (attempt resolved,
/// cancelled, or the worker died), and read their Job from the worker's
/// running slot, which is live exactly as long as the epoch matches.
/// Worker lifecycle events validate `token` against the worker's
/// incarnation instead. kRetryReady events own the only out-of-line
/// payload — the requeued Job, parked in a slab pool slot.
struct SimEvent {
  double end_time = 0.0;
  /// The issuing job for attempt/retry/speculate events (the second
  /// tie-break key); -1 for worker lifecycle events.
  int64_t job_id = -1;
  /// Monotone push counter: the final deterministic tie-break.
  int64_t seq = 0;
  /// Attempt epoch or worker incarnation, depending on `kind`.
  int64_t token = 0;
  int32_t worker = -1;
  EventKind kind = EventKind::kComplete;
  /// Slab slot of the requeued Job (kRetryReady only).
  uint32_t retry_slot = SlabPool<Job>::kInvalidSlot;
};

struct SimEventTime {
  double operator()(const SimEvent& e) const { return e.end_time; }
};

/// Total order "a resolves before b": (end_time, rank, job_id, seq) — the
/// exact inverse of the pre-calendar-queue heap comparator, so the pop
/// sequence (and every golden history) is bit-identical.
struct EarlierEvent {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    if (a.end_time != b.end_time) return a.end_time < b.end_time;
    const int rank_a = EventRank(a.kind);
    const int rank_b = EventRank(b.kind);
    if (rank_a != rank_b) return rank_a < rank_b;
    if (a.job_id != b.job_id) return a.job_id < b.job_id;
    return a.seq < b.seq;
  }
};

/// A copy of a job occupying a worker right now.
struct RunningAttempt {
  Job job;
  double start_time = 0.0;
  /// True for the duplicate copy launched by straggler speculation.
  bool speculative = false;
  /// Worker running the other copy of this job while a speculative
  /// duplicate races its primary; -1 otherwise.
  int sibling = -1;
};

/// Per-worker execution state (fault-domain accounting lives in the
/// TrialLifecycle).
struct WorkerState {
  bool alive = true;
  /// Which life of this worker is current (0 = first); bumped at death.
  int64_t incarnation = 0;
  /// Bumped whenever the worker's running attempt is released (resolution
  /// or cancellation), invalidating queued events of the old attempt.
  int64_t epoch = 0;
  /// Seeded plan for the current incarnation.
  WorkerLifetime lifetime;
};

}  // namespace

RunResult SimulatedCluster::Run(SchedulerInterface* scheduler,
                                const TuningProblem& problem) {
  double now = 0.0;
  // Trace events are stamped with the virtual clock. Recording consumes no
  // random numbers and perturbs no decision, so instrumented runs are
  // bit-identical to uninstrumented ones.
  TrialLifecycle lifecycle(options_, scheduler, problem,
                           [&now] { return now; }, options_.speculation,
                           options_.retention);
  Rng straggler_rng(CombineSeeds(options_.seed, 0x5772A667ULL));

  CalendarQueue<SimEvent, SimEventTime, EarlierEvent> queue;
  int64_t next_seq = 0;
  auto push_event = [&](SimEvent event) {
    event.seq = next_seq++;
    queue.Push(event);
  };
  /// Requeued jobs parked on a retry timer, addressed by event.retry_slot.
  SlabPool<Job> retry_slab;

  std::vector<int> idle_workers;
  for (int w = options_.num_workers - 1; w >= 0; --w) idle_workers.push_back(w);
  std::vector<WorkerState> workers(options_.num_workers);
  std::vector<std::optional<RunningAttempt>> running(options_.num_workers);
  /// Requeued jobs whose backoff already expired, awaiting an idle worker.
  std::deque<Job> ready_retries;
  int64_t events_processed = 0;
  const double budget = options_.time_budget_seconds;

  // Seed each worker's first incarnation. Draws nothing (and schedules
  // nothing) when worker faults are off, so fault-off runs stay
  // bit-identical to the pre-fault-domain code path.
  for (int w = 0; w < options_.num_workers; ++w) {
    workers[w].lifetime =
        PlanWorkerLifetime(options_.worker_faults, options_.seed, w, 0);
    if (std::isfinite(workers[w].lifetime.uptime_seconds)) {
      SimEvent death;
      death.end_time = workers[w].lifetime.uptime_seconds;
      death.worker = w;
      death.kind = EventKind::kWorkerDeath;
      death.token = 0;  // incarnation
      push_event(death);
    }
  }

  /// Moves worker `w`'s running attempt out and invalidates its queued
  /// events; a racing sibling copy runs on alone. Does NOT return the
  /// worker to the idle pool.
  auto release = [&](int w) {
    RunningAttempt attempt = *std::move(running[w]);
    running[w].reset();
    if (attempt.sibling >= 0) running[attempt.sibling]->sibling = -1;
    ++workers[w].epoch;
    return attempt;
  };

  auto launch = [&](const Job& job, int primary_worker) {
    const bool speculative_copy = primary_worker >= 0;
    int worker = idle_workers.back();
    idle_workers.pop_back();

    double cost = problem.EvaluationCost(job.config, job.resource) -
                  problem.EvaluationCost(job.config, job.resume_from);
    cost = std::max(cost, 0.0);
    if (options_.straggler_sigma > 0.0) {
      // Log-normal multiplicative noise, mean-one (mu = -sigma^2/2).
      double sigma = options_.straggler_sigma;
      cost *= straggler_rng.LogNormal(-0.5 * sigma * sigma, sigma);
    }
    cost += options_.dispatch_overhead_seconds;

    AttemptPlan plan =
        PlanAttempt(options_.faults, options_.seed, job, cost,
                    speculative_copy ? kSpeculativeStreamSalt : 0);
    RunningAttempt attempt;
    attempt.job = job;
    attempt.start_time = now;
    attempt.speculative = speculative_copy;
    if (speculative_copy) {
      attempt.sibling = primary_worker;
      running[primary_worker]->sibling = worker;
    }
    running[worker] = std::move(attempt);
    lifecycle.Launch(job, worker, speculative_copy, plan.duration, now);

    SimEvent flight;
    flight.end_time = now + plan.duration;
    flight.worker = worker;
    flight.job_id = job.job_id;
    flight.kind = plan.failed ? (plan.kind == FailureKind::kCrash
                                    ? EventKind::kCrash
                                    : EventKind::kTimeout)
                              : EventKind::kComplete;
    flight.token = workers[worker].epoch;
    push_event(flight);

    // Arm the straggler watchdog for primaries once the level's median is
    // trustworthy. The watchdog goes stale automatically (epoch mismatch)
    // if the attempt resolves first.
    if (speculative_copy) return;
    if (std::optional<double> threshold =
            lifecycle.StragglerThreshold(job.level)) {
      SimEvent watchdog;
      watchdog.end_time = now + *threshold;
      watchdog.worker = worker;
      watchdog.job_id = job.job_id;
      watchdog.kind = EventKind::kSpeculate;
      watchdog.token = workers[worker].epoch;
      push_event(watchdog);
    }
  };

  auto try_assign = [&]() {
    while (!idle_workers.empty() && now < budget) {
      // Requeued jobs take priority over fresh scheduler work.
      if (!ready_retries.empty()) {
        Job job = std::move(ready_retries.front());
        ready_retries.pop_front();
        launch(job, /*primary_worker=*/-1);
        continue;
      }
      std::optional<Job> job = lifecycle.NextJob(now);
      if (!job.has_value()) break;
      launch(*job, /*primary_worker=*/-1);
    }
  };

  /// Parks a requeued job on a retry timer, or queues it for the next idle
  /// worker when it needs no backoff.
  auto requeue = [&](std::optional<TrialLifecycle::Retry> retry) {
    if (!retry.has_value()) return;
    if (retry->delay > 0.0) {
      SimEvent timer;
      timer.end_time = now + retry->delay;
      timer.job_id = retry->job.job_id;
      timer.kind = EventKind::kRetryReady;
      timer.retry_slot = retry_slab.Acquire(std::move(retry->job));
      push_event(timer);
    } else {
      ready_retries.push_back(std::move(retry->job));
    }
  };

  /// Returns worker `w` to the idle pool, or benches it until its
  /// quarantine window ends.
  auto rejoin_after_failure = [&](int w) {
    if (!lifecycle.QuarantineAfterFailure(w, now)) {
      idle_workers.push_back(w);
      return;
    }
    SimEvent rejoin;
    rejoin.end_time = now + options_.worker_faults.quarantine_seconds;
    rejoin.worker = w;
    rejoin.kind = EventKind::kQuarantineEnd;
    rejoin.token = workers[w].incarnation;
    push_event(rejoin);
  };

  try_assign();

  bool budget_hit = false;
  while (!queue.empty() && !lifecycle.stopped()) {
    SimEvent flight = queue.PopMin();
    ++events_processed;
    if (flight.end_time > budget) {
      // The earliest remaining event lands past the budget: the run is
      // over. Worker time spent inside the budget by still-running
      // attempts counts as busy (charged at truncation); timers and
      // lifecycle events occupy no worker and contribute nothing.
      now = budget;
      budget_hit = true;
      break;
    }

    now = flight.end_time;
    const int w = flight.worker;
    WorkerState* ws = w >= 0 ? &workers[w] : nullptr;

    switch (flight.kind) {
      case EventKind::kRetryReady:
        ready_retries.push_back(retry_slab.Take(flight.retry_slot));
        try_assign();
        continue;

      case EventKind::kWorkerDeath: {
        if (!ws->alive || ws->incarnation != flight.token) continue;
        const bool was_quarantined = lifecycle.quarantined(w);
        lifecycle.WorkerDied(w, ws->lifetime.permanent, now);
        if (running[w].has_value()) {
          // Orphan the in-flight attempt; a racing speculative sibling
          // keeps the job alive.
          RunningAttempt attempt = release(w);
          requeue(lifecycle.Fail(attempt.job, FailureKind::kWorkerLost, w,
                                 attempt.speculative, attempt.start_time, now,
                                 attempt.sibling >= 0));
        } else if (!was_quarantined) {
          idle_workers.erase(
              std::find(idle_workers.begin(), idle_workers.end(), w));
        }
        ws->alive = false;
        ++ws->incarnation;
        if (!ws->lifetime.permanent) {
          SimEvent rebirth;
          rebirth.end_time = now + ws->lifetime.downtime_seconds;
          rebirth.worker = w;
          rebirth.kind = EventKind::kWorkerRecover;
          rebirth.token = ws->incarnation;
          push_event(rebirth);
        }
        break;
      }

      case EventKind::kWorkerRecover:
        if (ws->alive || ws->incarnation != flight.token) continue;
        lifecycle.WorkerRecovered(w, now);
        ws->alive = true;
        ws->lifetime = PlanWorkerLifetime(options_.worker_faults,
                                          options_.seed, w, ws->incarnation);
        if (std::isfinite(ws->lifetime.uptime_seconds)) {
          SimEvent death;
          death.end_time = now + ws->lifetime.uptime_seconds;
          death.worker = w;
          death.kind = EventKind::kWorkerDeath;
          death.token = ws->incarnation;
          push_event(death);
        }
        idle_workers.push_back(w);
        break;

      case EventKind::kQuarantineEnd:
        if (!ws->alive || !lifecycle.quarantined(w) ||
            ws->incarnation != flight.token) {
          continue;
        }
        lifecycle.QuarantineEnded(w, now);
        idle_workers.push_back(w);
        break;

      case EventKind::kSpeculate: {
        // Still the same attempt, still un-duplicated, and a spare worker
        // is idle right now — otherwise the watchdog expires without
        // effect.
        if (ws->epoch != flight.token || !running[w].has_value() ||
            !lifecycle.CanSpeculate(flight.job_id) || idle_workers.empty()) {
          continue;
        }
        Job duplicate = running[w]->job;
        lifecycle.Speculate(duplicate, w, now);
        launch(duplicate, /*primary_worker=*/w);
        continue;
      }

      case EventKind::kCrash:
      case EventKind::kTimeout: {
        // Skip outcomes of attempts cancelled or orphaned in the meantime —
        // their worker time was already charged.
        if (ws->epoch != flight.token || !running[w].has_value()) continue;
        RunningAttempt attempt = release(w);
        const FailureKind kind = flight.kind == EventKind::kCrash
                                     ? FailureKind::kCrash
                                     : FailureKind::kTimeout;
        requeue(lifecycle.Fail(attempt.job, kind, w, attempt.speculative,
                               attempt.start_time, now,
                               attempt.sibling >= 0));
        // A copy lost while its sibling races on still counts toward the
        // worker's quarantine streak.
        rejoin_after_failure(w);
        break;
      }

      case EventKind::kComplete: {
        if (ws->epoch != flight.token || !running[w].has_value()) continue;
        RunningAttempt attempt = release(w);
        // First finisher wins: a still-racing sibling is cancelled before
        // the result is delivered.
        std::optional<RunningAttempt> loser;
        if (attempt.sibling >= 0) {
          loser = release(attempt.sibling);
          idle_workers.push_back(attempt.sibling);
        }
        const uint64_t noise_seed =
            CombineSeeds(options_.seed, attempt.job.config.Hash());
        requeue(lifecycle.Complete(
            attempt.job,
            problem.Evaluate(attempt.job.config, attempt.job.resource,
                             noise_seed),
            w, attempt.speculative, attempt.start_time, now,
            loser.has_value()));
        if (loser.has_value()) {
          lifecycle.CopyLost(loser->job, attempt.sibling, loser->speculative,
                             loser->start_time, now, /*audit=*/false);
        }
        idle_workers.push_back(w);
        if (lifecycle.stopped()) continue;  // the loop condition ends the run
        break;
      }
    }

    try_assign();
    // If no attempt is running, no retry is pending, and the scheduler is
    // exhausted, the run ends before the budget (e.g. a single bracket
    // fully drained). With recoveries enabled the queue never empties
    // (death and rebirth events chain forever), so termination must not
    // rely on queue.empty().
    if (lifecycle.Drained()) break;
  }

  // Close the trace: every attempt still in flight at shutdown gets its
  // terminal event, so each launch pairs with exactly one terminal.
  for (int w = 0; w < options_.num_workers; ++w) {
    if (!running[w].has_value()) continue;
    lifecycle.Truncate(
        running[w]->job, w, running[w]->speculative,
        budget_hit ? std::max(0.0, budget - running[w]->start_time) : 0.0);
  }
  RunResult result = lifecycle.Finish(std::min(now, budget));
  result.events_processed = events_processed;
  return result;
}

}  // namespace hypertune
