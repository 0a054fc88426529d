#ifndef HYPERTUNE_CORE_TUNER_H_
#define HYPERTUNE_CORE_TUNER_H_

#include <memory>
#include <optional>
#include <string>

#include "src/allocator/fidelity_weights.h"
#include "src/optimizer/sampler.h"
#include "src/runtime/journal.h"
#include "src/runtime/measurement_store.h"
#include "src/runtime/process_cluster.h"
#include "src/runtime/scheduler_interface.h"
#include "src/runtime/simulated_cluster.h"
#include "src/runtime/thread_cluster.h"

namespace hypertune {

/// A fully wired tuning method: measurement store + sampler (+ fidelity
/// weights) + scheduler, ready to run against a TuningProblem on any of the
/// three execution backends. Build instances with TunerFactory (or the HyperTune
/// facade); a Tuner is single-use — schedulers accumulate state, so create
/// a fresh one per run.
class Tuner {
 public:
  Tuner(std::string method_name, std::unique_ptr<MeasurementStore> store,
        std::unique_ptr<Sampler> sampler,
        std::unique_ptr<FidelityWeights> weights,
        std::unique_ptr<SchedulerInterface> scheduler);

  Tuner(const Tuner&) = delete;
  Tuner& operator=(const Tuner&) = delete;

  /// Runs on the virtual-time simulator until the budget is exhausted.
  RunResult Run(const TuningProblem& problem, const ClusterOptions& options);

  /// Runs on real worker threads (wall-clock budget).
  RunResult RunOnThreads(const TuningProblem& problem,
                         const ThreadClusterOptions& options);

  /// Runs on worker subprocesses (wall-clock budget). `options` must name
  /// the hypertune_worker binary and a registry spec for `problem` (see
  /// runtime/process_cluster.h).
  RunResult RunOnProcesses(const TuningProblem& problem,
                           const ProcessClusterOptions& options);

  /// Resumes a killed simulator run from its write-ahead journal (see
  /// core/run_recovery.h). This tuner must be freshly built with the same
  /// configuration as the one that wrote the journal, and `options` must
  /// match the dead run's ClusterOptions — the journal's fingerprint check
  /// rejects anything else. Counts as this tuner's single use.
  [[nodiscard]] Result<RunResult> Resume(const TuningProblem& problem,
                           const ClusterOptions& options,
                           const std::string& journal_path,
                           JournalOptions journal_options = {});

  const std::string& method_name() const { return method_name_; }
  MeasurementStore* store() { return store_.get(); }
  Sampler* sampler() { return sampler_.get(); }
  SchedulerInterface* scheduler() { return scheduler_.get(); }

 private:
  std::string method_name_;
  std::unique_ptr<MeasurementStore> store_;
  std::unique_ptr<Sampler> sampler_;
  std::unique_ptr<FidelityWeights> weights_;
  std::unique_ptr<SchedulerInterface> scheduler_;
  bool used_ = false;
};

/// The trial with the lowest validation objective in `result`, or nullopt
/// when the run recorded no trials. Returns by value: trial records are
/// materialized on demand from the history's columnar storage, so there is
/// no stable record address to point into.
std::optional<TrialRecord> BestTrial(const RunResult& result);

}  // namespace hypertune

#endif  // HYPERTUNE_CORE_TUNER_H_
