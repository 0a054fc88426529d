#ifndef TUNEBENCH_WORKLOADS_H_
#define TUNEBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/tuner.h"
#include "src/core/tuner_factory.h"
#include "src/problems/problem.h"
#include "src/runtime/scheduler_interface.h"
#include "trace.h"

namespace tunebench {

/// One named benchmark workload on the simulator. RATIONALE.md says why
/// each exists.
struct WorkloadSpec {
  const char* name = "";
  hypertune::Method method = hypertune::Method::kHyperTune;
  int num_workers = 8;
  int64_t max_trials = 0;
  /// Crash faults, worker death/recovery, stragglers and speculation.
  bool chaos = false;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

std::unique_ptr<hypertune::TuningProblem> MakeProblem(const WorkloadSpec& spec);
hypertune::TunerFactoryOptions FactoryOptions(const WorkloadSpec& spec,
                                              uint64_t seed);
hypertune::ClusterOptions SimOptions(const WorkloadSpec& spec, uint64_t seed);

/// (configuration, resource) -> id of the job launched for it, so Evaluate
/// spans carry the trial they serve.
class JobIndex {
 public:
  void Note(const hypertune::Job& job);
  int64_t Find(const hypertune::Configuration& config, double resource) const;

 private:
  std::unordered_map<uint64_t, int64_t> ids_;
};

/// What a TimedScheduler saw.
struct SchedulerLedger {
  int64_t next_job_calls = 0;
  int64_t next_job_empty = 0;
  int64_t jobs_issued = 0;
  int64_t on_failed_calls = 0;
  /// Latency of each NextJob call that returned a job.
  std::vector<double> decision_s;
};

/// Times every call across the SchedulerInterface boundary and forwards
/// it unchanged.
class TimedScheduler final : public hypertune::SchedulerInterface {
 public:
  TimedScheduler(hypertune::SchedulerInterface* inner, SpanRecorder* spans,
                 JobIndex* jobs);

  std::optional<hypertune::Job> NextJob() override;
  void OnJobComplete(const hypertune::Job& job,
                     const hypertune::EvalResult& result) override;
  bool OnJobFailed(const hypertune::Job& job,
                   const hypertune::FailureInfo& info) override;
  bool Exhausted() const override { return inner_->Exhausted(); }
  void CheckInvariants() const override { inner_->CheckInvariants(); }
  void SetObservability(hypertune::Observability* sink) override {
    inner_->SetObservability(sink);
  }
  hypertune::Status Snapshot(hypertune::WireEncoder* enc) const override {
    return inner_->Snapshot(enc);
  }
  hypertune::Status Restore(hypertune::WireDecoder* dec) override {
    return inner_->Restore(dec);
  }

  const SchedulerLedger& ledger() const { return ledger_; }

 private:
  hypertune::SchedulerInterface* inner_;
  SpanRecorder* spans_;
  JobIndex* jobs_;
  SchedulerLedger ledger_;
};

/// Times every Sample() call of the sampler it owns.
class TimedSampler final : public hypertune::Sampler {
 public:
  TimedSampler(std::unique_ptr<hypertune::Sampler> inner, SpanRecorder* spans);

  hypertune::Configuration Sample(int target_level) override;
  void OnObservation(const hypertune::Configuration& config, double objective,
                     int level) override {
    inner_->OnObservation(config, objective, level);
  }
  std::string name() const override { return inner_->name(); }
  void SetObservability(hypertune::Observability* sink) override {
    inner_->SetObservability(sink);
  }
  hypertune::Status SnapshotState(hypertune::WireEncoder* enc) const override {
    return inner_->SnapshotState(enc);
  }
  hypertune::Status RestoreState(hypertune::WireDecoder* dec) override {
    return inner_->RestoreState(dec);
  }

  /// Duration of each Sample() call.
  const std::vector<double>& sample_s() const { return sample_s_; }

 private:
  std::unique_ptr<hypertune::Sampler> inner_;
  SpanRecorder* spans_;
  std::vector<double> sample_s_;
};

/// Times Evaluate() (the user's training job) and forwards everything else.
class TimedProblem final : public hypertune::TuningProblem {
 public:
  TimedProblem(const hypertune::TuningProblem& inner, SpanRecorder* spans,
               const JobIndex* jobs);

  std::string name() const override { return inner_.name(); }
  const hypertune::ConfigurationSpace& space() const override {
    return inner_.space();
  }
  double min_resource() const override { return inner_.min_resource(); }
  double max_resource() const override { return inner_.max_resource(); }
  hypertune::EvalOutcome Evaluate(const hypertune::Configuration& config,
                                  double resource,
                                  uint64_t noise_seed) const override;
  double EvaluationCost(const hypertune::Configuration& config,
                        double resource) const override {
    return inner_.EvaluationCost(config, resource);
  }
  double optimum() const override { return inner_.optimum(); }
  std::string metric_name() const override { return inner_.metric_name(); }

  int64_t calls() const { return calls_; }
  double seconds() const { return seconds_; }

 private:
  const hypertune::TuningProblem& inner_;
  SpanRecorder* spans_;
  const JobIndex* jobs_;
  mutable int64_t calls_ = 0;
  mutable double seconds_ = 0.0;
};

/// Wraps the sampler of a tuner built by BuildTuner.
using SamplerWrap = std::function<std::unique_ptr<hypertune::Sampler>(
    std::unique_ptr<hypertune::Sampler>)>;

/// Builds the workload's tuner as CreateTuner does, except that the sampler
/// handed to the scheduler is `wrap(sampler)`. The digest check proves that
/// the two constructions run identically.
std::unique_ptr<hypertune::Tuner> BuildTuner(
    const hypertune::TuningProblem& problem, const WorkloadSpec& spec,
    uint64_t seed, const SamplerWrap& wrap);

/// How to execute one tuning run.
struct ExecOptions {
  /// Null: CreateTuner. Otherwise BuildTuner with this sampler wrap.
  SamplerWrap wrap;
  /// File-backed journal path; empty runs without a journal.
  std::string journal_path;
  /// Records spans when set.
  SpanRecorder* spans = nullptr;
};

/// One finished tuning run with everything measured around it. The problem
/// outlives the tuner, whose store the layer probes read after the run.
struct Execution {
  std::unique_ptr<hypertune::TuningProblem> problem;
  std::unique_ptr<hypertune::Tuner> tuner;
  hypertune::RunResult result;
  SchedulerLedger scheduler;
  /// Problem, tuner and journal construction, up to the run's start.
  double setup_s = 0.0;
  /// Wall time of SimulatedCluster::Run.
  double wall_s = 0.0;
  int64_t evaluate_calls = 0;
  double evaluate_s = 0.0;
  int64_t journal_records = 0;
  int64_t journal_bytes = 0;
};

/// Runs the workload once on the simulator, with the TimedScheduler and
/// TimedProblem decorators. Throws std::runtime_error if the journal file
/// cannot be created.
Execution Execute(const WorkloadSpec& spec, uint64_t seed,
                  const ExecOptions& options);

/// Seconds to construct the problem, CreateTuner and RunJournal::Create:
/// the set-up an Execute pays before its run starts.
double SetupSeconds(const WorkloadSpec& spec, uint64_t seed,
                    const std::string& journal_path);

/// The result of a plain CreateTuner + Tuner::Run (no decorators, no
/// journal) of the workload with `seed`.
hypertune::RunResult PlainRun(const WorkloadSpec& spec, uint64_t seed);

/// Regret of the run's incumbent (its best full-fidelity validation
/// objective): the incumbent's noiseless objective minus the problem's
/// optimum. NaN if the run finished no full-fidelity trial.
double FinalRegret(const hypertune::TuningProblem& problem,
                   const hypertune::RunResult& result);

/// Writes the first `fraction` of the journal's records to `cut_path`.
/// Returns the number of records kept (header included), or -1.
int64_t CutJournal(const std::string& path, const std::string& cut_path,
                   double fraction);

struct ResumeOutcome {
  bool ok = false;
  std::string error;
  double seconds = 0.0;
  uint64_t digest = 0;
  int64_t fast_path = 0;         // journal.checkpoint_restored
  int64_t replayed_records = 0;  // journal.replayed_suffix_records
};

/// Tuner::Resume of a freshly created tuner from the journal at `cut_path`
/// to the end of the run. With `counters` the resume runs with an
/// observability sink (which costs time) so the recovery counters can be
/// read.
ResumeOutcome ResumeFromJournal(const WorkloadSpec& spec, uint64_t seed,
                                const std::string& cut_path, bool counters);

/// Layer probes over a finished run's store, through stable public APIs
/// only: Sampler::Sample and FidelityWeights::ComputeTheta.
struct ProbeTimes {
  double sample_cold_ms = 0.0;
  double sample_warm_ms = 0.0;
  double theta_ms = 0.0;
};
ProbeTimes ProbeLayers(const WorkloadSpec& spec, uint64_t seed,
                       const Execution& run);

}  // namespace tunebench

#endif  // TUNEBENCH_WORKLOADS_H_
