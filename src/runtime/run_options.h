#ifndef HYPERTUNE_RUNTIME_RUN_OPTIONS_H_
#define HYPERTUNE_RUNTIME_RUN_OPTIONS_H_

#include <cstdint>
#include <functional>

#include "src/obs/observability.h"
#include "src/runtime/fault_injector.h"
#include "src/runtime/trial_history.h"

namespace hypertune {

class RunJournal;

/// Observer invoked after every completed trial (progress reporting,
/// live dashboards, external early-stopping). Called on the simulator's
/// driving thread, under the thread backend's run-state lock, or on the
/// process backend's supervisor thread — keep it cheap and do not call
/// back into the cluster.
using TrialObserver = std::function<void(const TrialRecord&)>;

/// Options every execution backend shares (SimulatedCluster's
/// ClusterOptions, ThreadClusterOptions and ProcessClusterOptions extend
/// it). TrialLifecycle consumes exactly these fields.
struct RunOptions {
  int num_workers = 8;
  /// Budget in seconds: virtual time on SimulatedCluster, wall-clock time
  /// on the thread and process backends.
  double time_budget_seconds = 3600.0;
  /// Run seed: drives evaluation noise and every fault draw.
  uint64_t seed = 0;
  /// Stop after this many completed trials (<= 0: unlimited).
  int64_t max_trials = -1;
  /// Seeded crash/timeout injection and the retry policy (defaults: off).
  /// Failure draws are keyed on (seed, job_id, attempt), so which attempts
  /// fail is reproducible even where thread interleaving is not.
  FaultOptions faults;
  /// Whole-worker fault domain: seeded node death/recovery, permanent
  /// losses, and the quarantine policy for suspect workers (defaults: off).
  WorkerFaultOptions worker_faults;
  /// Optional per-completion callback.
  TrialObserver observer;
  /// Audit the scheduler contract on every call by wrapping the scheduler
  /// in a SchedulerContractChecker (aborts with an event dump on the first
  /// violation). On by default — the checker perturbs no decision and no
  /// RNG, so checked runs are bit-identical to unchecked ones; turn it off
  /// for microbenchmarks that measure raw scheduler overhead.
  bool check_contract = true;
  /// Observability sink (trace events + metrics). Off by default; recording
  /// consumes no random numbers and perturbs no decision, so instrumented
  /// runs stay bit-identical to uninstrumented ones. Trace events are
  /// stamped with the backend's own clock: virtual time on the simulator,
  /// run-relative wall time elsewhere.
  ObservabilityOptions obs;
  /// Optional write-ahead journal (borrowed; may be null). When set, every
  /// state transition — scheduler decision, launch, completion, failure,
  /// requeue, worker death/recovery, quarantine, speculation — is appended
  /// (and flushed) *before* the transition is applied, so a killed
  /// simulator run can be resumed bit-identically (see
  /// core/run_recovery.h). Journal hooks consume no random numbers and
  /// perturb no decision: journal-on and journal-off runs are
  /// bit-identical. Deliberately excluded from ClusterFingerprint for the
  /// same reason. Thread and process interleavings are not reproducible,
  /// so their journals serve durability (store recovery, post-mortems)
  /// rather than replay.
  RunJournal* journal = nullptr;
};

/// Aggregate outcome of a cluster run.
struct RunResult {
  TrialHistory history;
  /// Backend clock time when the run stopped.
  double elapsed_seconds = 0.0;
  /// Sum over workers of busy seconds (evaluation time, including time
  /// burned by attempts that later crashed or timed out).
  double busy_seconds = 0.0;
  /// Sum over workers of idle seconds inside [0, elapsed].
  double idle_seconds = 0.0;
  /// Worker utilization in [0, 1]: busy / (busy + idle).
  double utilization = 0.0;
  /// Attempts that failed (each retry that fails counts).
  int64_t failed_attempts = 0;
  /// Failed attempts that were requeued for another try.
  int64_t retries = 0;
  /// Jobs abandoned after exhausting their retries (== history.failures()).
  int64_t failed_trials = 0;
  /// Worker seconds burned by failed attempts.
  double wasted_seconds = 0.0;

  // --- Failure-kind breakdown of failed_attempts. ---
  /// Attempts that crashed (job-level; consumes retry budget).
  int64_t crash_attempts = 0;
  /// Attempts killed by the per-job timeout (job-level; consumes budget).
  int64_t timeout_attempts = 0;
  /// Attempts orphaned by a worker death (worker-level; never consumes the
  /// job's retry budget — always requeued immediately).
  int64_t worker_lost_attempts = 0;
  /// Attempts whose objective was not finite (NaN or +-inf). Reported with
  /// no retries remaining: evaluation is a pure function of (config,
  /// resource, seed), so a retry would return the same value.
  int64_t invalid_result_attempts = 0;

  // --- Worker fault-domain accounting. ---
  /// Worker death events over the run (a worker can die more than once).
  int64_t worker_deaths = 0;
  /// Workers that died permanently and never rejoined.
  int64_t workers_lost_permanently = 0;
  /// Quarantine windows entered by suspect workers.
  int64_t quarantines = 0;
  /// Sum over workers of seconds spent dead or quarantined inside
  /// [0, elapsed] (informational; not part of busy/idle).
  double worker_down_seconds = 0.0;

  // --- Speculative re-execution accounting. ---
  /// Duplicate copies launched for straggling attempts.
  int64_t speculative_attempts = 0;
  /// Duplicates that finished before their straggling primary.
  int64_t speculative_wins = 0;
  /// Copies retired while their sibling lived (cancelled losers, crashed
  /// copies, copies orphaned by worker death).
  int64_t speculative_losses = 0;
  /// Worker seconds burned by losing speculative copies.
  double speculative_wasted_seconds = 0.0;

  /// Simulator events processed (queue pops), SimulatedCluster only. The
  /// denominator-free throughput measure for scalability benchmarks:
  /// events / wall seconds is the event core's processing rate.
  int64_t events_processed = 0;

  /// Derives idle_seconds and utilization from elapsed/busy. Utilization is
  /// busy / (busy + idle) and defined as 0 for a zero-trial run (no time
  /// elapsed), never NaN.
  void Finalize(int num_workers);
};

}  // namespace hypertune

#endif  // HYPERTUNE_RUNTIME_RUN_OPTIONS_H_
