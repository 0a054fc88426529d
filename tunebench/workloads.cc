#include "workloads.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "src/allocator/fidelity_weights.h"
#include "src/common/rng.h"
#include "src/core/run_recovery.h"
#include "src/obs/observability.h"
#include "src/optimizer/mfes_sampler.h"
#include "src/optimizer/random_sampler.h"
#include "src/problems/counting_ones.h"
#include "src/problems/nas_bench.h"
#include "src/runtime/journal.h"
#include "src/runtime/simulated_cluster.h"
#include "src/runtime/wire_format.h"
#include "src/scheduler/async_bracket_scheduler.h"
#include "src/scheduler/sync_bracket_scheduler.h"

namespace tunebench {

using namespace hypertune;

namespace {

std::unique_ptr<RunJournal> CreateJournal(const std::string& path,
                                          const ClusterOptions& cluster) {
  Result<std::unique_ptr<RunJournal>> journal =
      RunJournal::Create(path, ClusterFingerprint(cluster));
  if (!journal.ok()) {
    throw std::runtime_error("journal create failed: " +
                             journal.status().ToString());
  }
  return std::move(*journal);
}

uint64_t JobKey(const Configuration& config, double resource) {
  uint64_t bits = 0;
  std::memcpy(&bits, &resource, sizeof(bits));
  return CombineSeeds(config.Hash(), bits);
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(2);
    w[0].name = "hypertune-nas";
    w[0].method = Method::kHyperTune;
    w[0].num_workers = 8;
    w[0].max_trials = 500;

    w[1].name = "fleet-chaos";
    w[1].method = Method::kHyperband;
    w[1].num_workers = 256;
    w[1].max_trials = 16000;
    w[1].chaos = true;

    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<TuningProblem> MakeProblem(const WorkloadSpec& spec) {
  if (spec.method == Method::kHyperband) {
    CountingOnesOptions options;
    options.num_categorical = 4;
    options.num_continuous = 4;
    return std::make_unique<CountingOnes>(options);
  }
  NasBenchOptions options;
  options.dataset = NasDataset::kCifar100;
  return std::make_unique<SyntheticNasBench>(options);
}

TunerFactoryOptions FactoryOptions(const WorkloadSpec& spec, uint64_t seed) {
  TunerFactoryOptions options;
  options.method = spec.method;
  options.batch_size = spec.num_workers;
  options.seed = seed;
  return options;
}

ClusterOptions SimOptions(const WorkloadSpec& spec, uint64_t seed) {
  ClusterOptions options;
  options.num_workers = spec.num_workers;
  options.time_budget_seconds = 1e12;  // the trial cap ends the run
  options.seed = seed;
  options.max_trials = spec.max_trials;
  if (spec.chaos) {
    options.straggler_sigma = 0.5;
    options.faults.crash_probability = 0.05;
    options.faults.max_retries = 2;
    options.faults.retry_backoff_seconds = 30.0;
    options.faults.retry_jitter = 0.25;
    options.worker_faults.mttf_seconds = 20000.0;
    options.worker_faults.mttr_seconds = 600.0;
    options.worker_faults.permanent_death_probability = 0.02;
    options.worker_faults.quarantine_failures = 3;
    options.worker_faults.quarantine_seconds = 900.0;
    options.speculation.speculation_factor = 2.0;
    options.speculation.min_samples = 20;
  }
  return options;
}

void JobIndex::Note(const Job& job) {
  ids_[JobKey(job.config, job.resource)] = job.job_id;
}

int64_t JobIndex::Find(const Configuration& config, double resource) const {
  auto it = ids_.find(JobKey(config, resource));
  return it == ids_.end() ? -1 : it->second;
}

TimedScheduler::TimedScheduler(SchedulerInterface* inner, SpanRecorder* spans,
                               JobIndex* jobs)
    : inner_(inner), spans_(spans), jobs_(jobs) {}

std::optional<Job> TimedScheduler::NextJob() {
  const int64_t span = spans_ ? spans_->Begin("scheduler.next_job") : -1;
  const double start = Now();
  std::optional<Job> job = inner_->NextJob();
  const double seconds = Now() - start;
  if (spans_) spans_->End(span, job ? job->job_id : -1);
  ++ledger_.next_job_calls;
  if (!job) {
    ++ledger_.next_job_empty;
    return job;
  }
  ++ledger_.jobs_issued;
  ledger_.decision_s.push_back(seconds);
  if (jobs_) jobs_->Note(*job);
  return job;
}

void TimedScheduler::OnJobComplete(const Job& job, const EvalResult& result) {
  const int64_t span =
      spans_ ? spans_->Begin("scheduler.on_complete", job.job_id) : -1;
  inner_->OnJobComplete(job, result);
  if (spans_) spans_->End(span);
}

bool TimedScheduler::OnJobFailed(const Job& job, const FailureInfo& info) {
  const int64_t span =
      spans_ ? spans_->Begin("scheduler.on_failed", job.job_id) : -1;
  const bool requeue = inner_->OnJobFailed(job, info);
  if (spans_) spans_->End(span);
  ++ledger_.on_failed_calls;
  return requeue;
}

TimedSampler::TimedSampler(std::unique_ptr<Sampler> inner, SpanRecorder* spans)
    : inner_(std::move(inner)), spans_(spans) {}

Configuration TimedSampler::Sample(int target_level) {
  const int64_t span = spans_ ? spans_->Begin("optimizer.sample") : -1;
  const double start = Now();
  Configuration config = inner_->Sample(target_level);
  sample_s_.push_back(Now() - start);
  if (spans_) spans_->End(span);
  return config;
}

TimedProblem::TimedProblem(const TuningProblem& inner, SpanRecorder* spans,
                           const JobIndex* jobs)
    : inner_(inner), spans_(spans), jobs_(jobs) {}

EvalOutcome TimedProblem::Evaluate(const Configuration& config,
                                   double resource,
                                   uint64_t noise_seed) const {
  const int64_t span =
      spans_ ? spans_->Begin("problems.evaluate",
                             jobs_ ? jobs_->Find(config, resource) : -1)
             : -1;
  const double start = Now();
  EvalOutcome outcome = inner_.Evaluate(config, resource, noise_seed);
  seconds_ += Now() - start;
  if (spans_) spans_->End(span);
  ++calls_;
  return outcome;
}

std::unique_ptr<Tuner> BuildTuner(const TuningProblem& problem,
                                  const WorkloadSpec& spec, uint64_t seed,
                                  const SamplerWrap& wrap) {
  // Mirrors tuner_factory.cc for the two methods the workloads use.
  const ConfigurationSpace& space = problem.space();
  const TunerFactoryOptions factory = FactoryOptions(spec, seed);
  const ResourceLadder ladder =
      ResourceLadder::Make(problem.min_resource(), problem.max_resource(),
                           factory.eta, factory.max_brackets);
  auto store = std::make_unique<MeasurementStore>(ladder.num_levels);
  if (spec.method == Method::kHyperband) {
    std::unique_ptr<Sampler> sampler = wrap(std::make_unique<RandomSampler>(
        &space, store.get(), CombineSeeds(seed, 0x7A2D0ULL)));
    BracketSchedulerOptions sync;
    sync.ladder = ladder;
    sync.selector.policy = BracketPolicy::kRoundRobin;
    sync.selector.fixed_bracket = 1;
    sync.selector.seed = CombineSeeds(seed, 0x5E1ECULL);
    auto scheduler = std::make_unique<SyncBracketScheduler>(
        &space, store.get(), sampler.get(), nullptr, sync);
    return std::make_unique<Tuner>(MethodName(spec.method), std::move(store),
                                   std::move(sampler), nullptr,
                                   std::move(scheduler));
  }
  FidelityWeightsOptions weight_options;
  weight_options.seed = CombineSeeds(seed, 0xF1DE11F1ULL);
  auto weights = std::make_unique<FidelityWeights>(&space, weight_options);
  MfesSamplerOptions mfes;
  mfes.bo.surrogate = factory.surrogate;
  mfes.bo.seed = CombineSeeds(seed, 0x3FE5ULL);
  mfes.weights.seed = CombineSeeds(seed, 0xF1DE11F1ULL);
  std::unique_ptr<Sampler> sampler =
      wrap(std::make_unique<MfesSampler>(&space, store.get(), mfes));
  BracketSchedulerOptions async;
  async.ladder = ladder;
  async.selector.policy = BracketPolicy::kLearned;
  async.selector.fixed_bracket = 1;
  async.selector.seed = CombineSeeds(seed, 0x5E1ECULL);
  async.delayed_promotion = true;
  auto scheduler = std::make_unique<AsyncBracketScheduler>(
      &space, store.get(), sampler.get(), weights.get(), async);
  return std::make_unique<Tuner>(MethodName(spec.method), std::move(store),
                                 std::move(sampler), std::move(weights),
                                 std::move(scheduler));
}

Execution Execute(const WorkloadSpec& spec, uint64_t seed,
                  const ExecOptions& options) {
  Execution run;
  const double setup_start = Now();
  run.problem = MakeProblem(spec);
  run.tuner = options.wrap ? BuildTuner(*run.problem, spec, seed, options.wrap)
                           : CreateTuner(*run.problem, FactoryOptions(spec, seed));
  ClusterOptions cluster = SimOptions(spec, seed);
  std::unique_ptr<RunJournal> journal;
  if (!options.journal_path.empty()) {
    journal = CreateJournal(options.journal_path, cluster);
    cluster.journal = journal.get();
  }
  JobIndex jobs;
  JobIndex* index = options.spans != nullptr ? &jobs : nullptr;
  TimedScheduler scheduler(run.tuner->scheduler(), options.spans, index);
  TimedProblem problem(*run.problem, options.spans, index);
  const double start = Now();
  run.setup_s = start - setup_start;
  run.result = SimulatedCluster(cluster).Run(&scheduler, problem);
  run.wall_s = Now() - start;
  run.scheduler = scheduler.ledger();
  run.evaluate_calls = problem.calls();
  run.evaluate_s = problem.seconds();
  if (journal != nullptr) {
    run.journal_records = journal->records_appended();
    journal.reset();  // closes the file
    run.journal_bytes =
        static_cast<int64_t>(std::filesystem::file_size(options.journal_path));
  }
  return run;
}

double SetupSeconds(const WorkloadSpec& spec, uint64_t seed,
                    const std::string& journal_path) {
  const double start = Now();
  std::unique_ptr<TuningProblem> problem = MakeProblem(spec);
  std::unique_ptr<Tuner> tuner =
      CreateTuner(*problem, FactoryOptions(spec, seed));
  std::unique_ptr<RunJournal> journal =
      CreateJournal(journal_path, SimOptions(spec, seed));
  return Now() - start;
}

RunResult PlainRun(const WorkloadSpec& spec, uint64_t seed) {
  std::unique_ptr<TuningProblem> problem = MakeProblem(spec);
  std::unique_ptr<Tuner> tuner =
      CreateTuner(*problem, FactoryOptions(spec, seed));
  return tuner->Run(*problem, SimOptions(spec, seed));
}

double FinalRegret(const TuningProblem& problem, const RunResult& result) {
  // The incumbent: the best validation objective at full fidelity.
  std::optional<TrialRecord> incumbent;
  for (const TrialRecord& trial : result.history.trials()) {
    if (trial.job.resource < problem.max_resource()) continue;
    if (!incumbent || trial.result.objective < incumbent->result.objective) {
      incumbent = trial;
    }
  }
  if (!incumbent) return NAN;
  // Judge it by its noiseless value: a noisy validation draw can sit below
  // the optimum, which is not a better tuning result.
  double truth = NAN;
  if (auto* nas = dynamic_cast<const SyntheticNasBench*>(&problem)) {
    truth = nas->FinalValidationError(incumbent->job.config);
  } else if (auto* ones = dynamic_cast<const CountingOnes*>(&problem)) {
    truth = ones->ExactValue(incumbent->job.config);
  }
  return truth - problem.optimum();
}

int64_t CutJournal(const std::string& path, const std::string& cut_path,
                   double fraction) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return -1;
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const RecordScan scan = ScanRecords(bytes);
  if (!scan.tail.ok() || scan.records.size() < 2) return -1;
  const size_t keep = std::max<size_t>(
      2, static_cast<size_t>(fraction * static_cast<double>(scan.records.size())));
  size_t length = 0;
  for (size_t i = 0; i < keep; ++i) length += 8 + scan.records[i].size();
  std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(length));
  return out ? static_cast<int64_t>(keep) : -1;
}

ResumeOutcome ResumeFromJournal(const WorkloadSpec& spec, uint64_t seed,
                                const std::string& cut_path, bool counters) {
  ResumeOutcome outcome;
  std::unique_ptr<TuningProblem> problem = MakeProblem(spec);
  Observability obs;
  std::unique_ptr<Tuner> tuner =
      CreateTuner(*problem, FactoryOptions(spec, seed));
  ClusterOptions options = SimOptions(spec, seed);
  if (counters) options.obs.sink = &obs;
  const double start = Now();
  Result<RunResult> resumed = tuner->Resume(*problem, options, cut_path);
  outcome.seconds = Now() - start;
  outcome.ok = resumed.ok();
  if (!resumed.ok()) {
    outcome.error = resumed.status().ToString();
    return outcome;
  }
  outcome.digest = RunResultDigest(*resumed);
  const MetricsSnapshot snapshot = obs.metrics.Snapshot();
  auto counter = [&snapshot](const char* name) -> int64_t {
    auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  outcome.fast_path = counter("journal.checkpoint_restored");
  outcome.replayed_records = counter("journal.replayed_suffix_records");
  return outcome;
}

ProbeTimes ProbeLayers(const WorkloadSpec& spec, uint64_t seed,
                       const Execution& run) {
  ProbeTimes times;
  const ConfigurationSpace& space = run.problem->space();
  const MeasurementStore& store = *run.tuner->store();
  const int top = store.num_levels();
  std::unique_ptr<Sampler> sampler;
  if (spec.method == Method::kHyperband) {
    sampler = std::make_unique<RandomSampler>(&space, &store, seed);
  } else {
    MfesSamplerOptions mfes;
    mfes.bo.seed = seed;
    mfes.bo.random_fraction = 0.0;  // always take the model path
    mfes.weights.seed = seed;
    sampler = std::make_unique<MfesSampler>(&space, &store, mfes);
  }
  double start = Now();
  sampler->Sample(top);  // fit every level + theta + acquisition
  times.sample_cold_ms = (Now() - start) * 1e3;
  start = Now();
  sampler->Sample(top);  // unchanged store: acquisition only
  times.sample_warm_ms = (Now() - start) * 1e3;
  if (spec.method != Method::kHyperband) {
    FidelityWeightsOptions options;
    options.seed = seed;
    FidelityWeights weights(&space, options);
    start = Now();
    weights.ComputeTheta(store);
    times.theta_ms = (Now() - start) * 1e3;
  }
  return times;
}

}  // namespace tunebench
