// tunebench: the tuning benchmark. Runs one named workload through the
// public API for --seconds, checks its outputs, and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1); the last line
// of standard output is one JSON object. RATIONALE.md explains the design.
//
//   tunebench --workload hypertune-nas --seed 1 --seconds 55 --trace 0
//             [--work-dir DIR]
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/runtime/journal.h"
#include "trace.h"
#include "workloads.h"

namespace tunebench {
namespace {

using hypertune::CombineSeeds;
using hypertune::RunResult;
using hypertune::RunResultDigest;

/// final_regret is judged on this fixed panel of tuning seeds, so the
/// quality guard is deterministic for a given program; --seed drives the
/// timed repetitions.
constexpr uint64_t kPanelSeed = 0x9A4E15EEDULL;
constexpr int kPanelRuns = 4;
/// Set-up is short, so each repetition samples it this many extra times.
constexpr int kSetupSamples = 20;
/// Resume starts from a journal cut after this share of its records.
constexpr double kResumeFraction = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// What repetitions measured (named series of values) and the operations
/// they attempted and failed. Every failed check prints its name.
class Report {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  void Append(const std::string& name, const std::vector<double>& values) {
    std::vector<double>& series = values_[name];
    series.insert(series.end(), values.begin(), values.end());
  }
  const std::vector<double>& values(const std::string& name) const {
    static const std::vector<double> kNone;
    auto it = values_.find(name);
    return it == values_.end() ? kNone : it->second;
  }

  /// Starts an operation: a tuning run or a resume.
  void Begin(const std::string& operation) {
    ++attempted_;
    operation_ = operation;
    operation_failed_ = false;
  }
  void Expect(bool ok, const std::string& check) {
    if (ok) return;
    std::cout << "CHECK FAILED [" << operation_ << "]: " << check << "\n";
    if (!operation_failed_) ++failed_;
    operation_failed_ = true;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  void Merge(const Report& other) {
    for (const auto& [name, series] : other.values_) Append(name, series);
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }

  /// "ops <attempted> <failed>" then one "<name> <values...>" line per
  /// series.
  std::string Serialize() const {
    std::ostringstream out;
    out.precision(17);
    out << "ops " << attempted_ << " " << failed_ << "\n";
    for (const auto& [name, series] : values_) {
      out << name;
      for (double v : series) out << " " << v;
      out << "\n";
    }
    return out.str();
  }
  static Report Parse(const std::string& text) {
    Report report;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      std::istringstream tokens(line);
      std::string name;
      tokens >> name;
      if (name == "ops") {
        tokens >> report.attempted_ >> report.failed_;
        continue;
      }
      std::vector<double>& series = report.values_[name];
      std::string token;
      while (tokens >> token) series.push_back(std::strtod(token.c_str(), nullptr));
    }
    return report;
  }

 private:
  std::map<std::string, std::vector<double>> values_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::string operation_;
  bool operation_failed_ = false;
};

/// Runs `body` in a child process and returns its Report. On shared virtual
/// machines run time differs by several percent between processes but
/// little within one, so each repetition gets a process of its own and the
/// medians span many. A child that dies counts as one failed operation.
Report RunIsolated(const std::function<void(Report*)>& body) {
  std::cout.flush();
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    Report report;
    try {
      body(&report);
    } catch (const std::exception& e) {
      report.Begin("repetition");
      report.Expect(false, e.what());
    }
    const std::string text = report.Serialize();
    size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = write(fds[1], text.data() + sent, text.size() - sent);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    close(fds[1]);
    std::cout.flush();
    _exit(sent == text.size() ? 0 : 1);
  }
  close(fds[1]);
  std::string text;
  char buffer[1 << 16];
  ssize_t n = 0;
  while ((n = read(fds[0], buffer, sizeof(buffer))) > 0) {
    text.append(buffer, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  Report report = Report::Parse(text);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    report.Begin("repetition process");
    report.Expect(false, "exited abnormally (wait status " +
                             std::to_string(status) + ")");
  }
  return report;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string OpName(const WorkloadSpec& spec, uint64_t seed, const char* what) {
  return std::string(spec.name) + " " + what + " seed " + std::to_string(seed);
}

void CheckRegret(double regret, Report* report) {
  report->Expect(std::isfinite(regret) && regret >= 0.0,
                 "final_regret is finite and >= 0 (got " +
                     std::to_string(regret) + ")");
}

/// Checks every finished workload run must pass.
void CheckRun(const WorkloadSpec& spec, const Execution& run, Report* report) {
  const RunResult& r = run.result;
  report->Expect(r.history.num_trials() > 0, "run completed trials");
  CheckRegret(FinalRegret(*run.problem, r), report);
  if (spec.chaos) {
    report->Expect(r.failed_attempts > 0, "chaos: failed attempts > 0");
    report->Expect(r.worker_deaths > 0, "chaos: worker deaths > 0");
    report->Expect(r.speculative_attempts > 0,
                   "chaos: speculative attempts > 0");
  }
}

/// Cuts `journal`, resumes from the cut copy and checks that the resumed
/// run is the uninterrupted one, whose digest is `digest`.
ResumeOutcome CutAndResume(const WorkloadSpec& spec, uint64_t seed,
                           const std::string& journal, uint64_t digest,
                           bool counters, Report* report) {
  const std::string cut = journal + ".cut";
  report->Expect(CutJournal(journal, cut, kResumeFraction) > 0,
                 "journal could be read and cut");
  ResumeOutcome resume = ResumeFromJournal(spec, seed, cut, counters);
  report->Expect(resume.ok, "resume returned OK (" + resume.error + ")");
  report->Expect(resume.digest == digest,
                 "resumed digest equals the uninterrupted run's");
  std::filesystem::remove(cut);
  return resume;
}

/// Appends one repetition's latency samples as series `<name>_s`, and as
/// `<name>_tail_pct` the tail percentile they support on their own.
void AddLatencies(const std::string& name, const std::vector<double>& samples,
                  Report* report) {
  report->Append(name + "_s", samples);
  const std::optional<Tail> tail = TailLatency(samples);
  report->Expect(tail.has_value(), "at least 20 " + name + " samples");
  if (tail) report->Add(name + "_tail_pct", tail->percentile);
}

/// The tail of the pooled `<name>_s` samples, at the highest percentile
/// that every repetition supports alone: each repetition has about as many
/// samples as the trial cap allows, so the percentile does not change with
/// the number of repetitions, while pooling steadies the estimate.
double PooledTail(const Report& all, const std::string& name) {
  const std::vector<double>& percentiles = all.values(name + "_tail_pct");
  if (percentiles.empty()) return NAN;
  const double percentile =
      *std::min_element(percentiles.begin(), percentiles.end());
  const std::vector<double>& samples = all.values(name + "_s");
  std::printf("%s tail: p%g of %zu pooled samples\n", name.c_str(),
              percentile, samples.size());
  return Percentile(samples, percentile);
}

/// The quality panel: final_regret of plain runs on fixed seeds.
void PanelRuns(const WorkloadSpec& spec, Report* report) {
  const std::unique_ptr<hypertune::TuningProblem> problem = MakeProblem(spec);
  for (int i = 0; i < kPanelRuns; ++i) {
    const uint64_t seed = CombineSeeds(kPanelSeed, static_cast<uint64_t>(i));
    report->Begin(OpName(spec, seed, "panel run"));
    const double regret = FinalRegret(*problem, PlainRun(spec, seed));
    CheckRegret(regret, report);
    report->Add("final_regret", regret);
  }
}

/// One --trace 0 repetition: set-up samples, a journaled run, then resume
/// from its cut journal.
void EndToEndRep(const WorkloadSpec& spec, uint64_t seed, bool first,
                 const std::string& journal, Report* report) {
  for (int i = 0; i < kSetupSamples; ++i) {
    report->Add("setup_s", SetupSeconds(spec, seed, journal));
  }
  report->Begin(OpName(spec, seed, "run"));
  ExecOptions options;
  options.journal_path = journal;
  const Execution run = Execute(spec, seed, options);
  CheckRun(spec, run, report);
  const uint64_t digest = RunResultDigest(run.result);
  if (first) {
    report->Expect(digest == RunResultDigest(PlainRun(spec, seed)),
                   "decorated run digest equals undecorated Tuner::Run");
  }
  const RunResult& r = run.result;
  const double trials = static_cast<double>(r.history.num_trials());
  report->Add("trials_per_s", trials / run.wall_s);
  // On the simulator everything but Evaluate is driver work; on a real
  // cluster Evaluate runs on the workers.
  report->Add("driver_us_per_trial",
              (run.wall_s - run.evaluate_s) / trials * 1e6);
  AddLatencies("decision", run.scheduler.decision_s, report);
  report->Add("utilization", r.utilization);
  report->Add("trial_success_frac",
              1.0 - static_cast<double>(r.failed_trials) /
                        static_cast<double>(run.scheduler.jobs_issued));

  report->Begin(OpName(spec, seed, "resume"));
  const ResumeOutcome resume =
      CutAndResume(spec, seed, journal, digest, false, report);
  report->Add("resume_s", resume.seconds);

  report->Add("setup_s", run.setup_s);
  std::filesystem::remove(journal);
  report->Add("peak_rss_mb", PeakRssMb());
  std::printf("seed %llu: %lld trials in %.4f s, resume %.4f s\n",
              static_cast<unsigned long long>(seed),
              static_cast<long long>(r.history.num_trials()), run.wall_s,
              resume.seconds);
}

SpanTotals Totals(const std::map<std::string, SpanTotals>& totals,
                  const char* name) {
  auto it = totals.find(name);
  return it == totals.end() ? SpanTotals{} : it->second;
}

/// Where one traced run's wall time went, by layer.
struct LayerTimes {
  SpanTotals next_job, on_complete, on_failed, sample, evaluate;
  /// Wall time outside every scheduler and problem call.
  double runtime_self_s = 0.0;
};

LayerTimes Layers(const Execution& traced,
                  const std::map<std::string, SpanTotals>& totals) {
  LayerTimes t;
  t.next_job = Totals(totals, "scheduler.next_job");
  t.on_complete = Totals(totals, "scheduler.on_complete");
  t.on_failed = Totals(totals, "scheduler.on_failed");
  t.sample = Totals(totals, "optimizer.sample");
  t.evaluate = Totals(totals, "problems.evaluate");
  t.runtime_self_s = traced.wall_s - t.next_job.total_s -
                     t.on_complete.total_s - t.on_failed.total_s -
                     t.evaluate.total_s;
  return t;
}

void PrintLayerTable(const WorkloadSpec& spec, double wall,
                     const LayerTimes& t) {
  std::printf("%s traced run: %.4f s wall\n", spec.name, wall);
  std::printf("  %-10s %10s %12s %8s\n", "layer", "calls", "self_s", "share");
  auto row = [wall](const char* layer, int64_t calls, double self_s) {
    std::printf("  %-10s %10lld %12.6f %7.1f%%\n", layer,
                static_cast<long long>(calls), self_s, 100.0 * self_s / wall);
  };
  row("runtime", 1, t.runtime_self_s);
  row("scheduler", t.next_job.calls + t.on_complete.calls + t.on_failed.calls,
      t.next_job.self_s + t.on_complete.self_s + t.on_failed.self_s);
  row("optimizer", t.sample.calls, t.sample.self_s);
  row("problems", t.evaluate.calls, t.evaluate.self_s);
}

/// One --trace 1 repetition: an untraced run, a traced run with and
/// without the journal, resume with recovery counters, and the layer
/// probes. Every run must reproduce the plain Tuner::Run.
void TracedRep(const WorkloadSpec& spec, uint64_t seed, bool first,
               const std::string& journal, const std::string& spans_path,
               Report* report) {
  const uint64_t reference = RunResultDigest(PlainRun(spec, seed));

  report->Begin(OpName(spec, seed, "untraced run"));
  ExecOptions plain;
  plain.journal_path = journal;
  const Execution untraced = Execute(spec, seed, plain);
  CheckRun(spec, untraced, report);
  report->Expect(RunResultDigest(untraced.result) == reference,
                 "untraced decorated digest equals Tuner::Run");

  report->Begin(OpName(spec, seed, "traced run"));
  SpanRecorder spans;
  TimedSampler* sampler = nullptr;
  ExecOptions traced_options;
  traced_options.journal_path = journal;
  traced_options.spans = &spans;
  traced_options.wrap = [&](std::unique_ptr<hypertune::Sampler> inner) {
    auto timed = std::make_unique<TimedSampler>(std::move(inner), &spans);
    sampler = timed.get();
    return timed;
  };
  const Execution traced = Execute(spec, seed, traced_options);
  CheckRun(spec, traced, report);
  report->Expect(RunResultDigest(traced.result) == reference,
                 "traced decorated digest equals Tuner::Run");

  report->Begin(OpName(spec, seed, "traced run without journal"));
  SpanRecorder unjournaled_spans;
  ExecOptions unjournaled_options;
  unjournaled_options.spans = &unjournaled_spans;
  unjournaled_options.wrap = [&](std::unique_ptr<hypertune::Sampler> inner) {
    return std::make_unique<TimedSampler>(std::move(inner),
                                          &unjournaled_spans);
  };
  const Execution unjournaled = Execute(spec, seed, unjournaled_options);
  report->Expect(RunResultDigest(unjournaled.result) == reference,
                 "journal-off traced digest equals Tuner::Run");

  report->Begin(OpName(spec, seed, "resume"));
  const ResumeOutcome resume =
      CutAndResume(spec, seed, journal, reference, true, report);
  std::filesystem::remove(journal);
  const ProbeTimes probes = ProbeLayers(spec, seed, traced);

  const RunResult& r = traced.result;
  const LayerTimes layers = Layers(traced, TotalsByName(spans.spans()));
  const double trials = static_cast<double>(r.history.num_trials());
  report->Add("runtime.self_s", layers.runtime_self_s);
  report->Add("runtime.events", static_cast<double>(r.events_processed));
  report->Add("runtime.events_per_s",
              static_cast<double>(untraced.result.events_processed) /
                  untraced.wall_s);
  report->Add("runtime.useful_attempt_ratio",
              trials / static_cast<double>(traced.scheduler.jobs_issued +
                                           r.retries + r.speculative_attempts));
  report->Add("runtime.idle_s", r.idle_seconds);
  report->Add("runtime.journal.bytes",
              static_cast<double>(traced.journal_bytes));
  report->Add("runtime.journal.records",
              static_cast<double>(traced.journal_records));
  report->Add("runtime.journal.overhead_s",
              traced.wall_s - unjournaled.wall_s);
  const hypertune::MeasurementStore& store = *traced.tuner->store();
  report->Add("runtime.store.measurements",
              static_cast<double>(store.TotalSize()));
  report->Add("runtime.store.top_level",
              static_cast<double>(store.group(store.num_levels()).size()));
  report->Add("scheduler.next_job_calls",
              static_cast<double>(traced.scheduler.next_job_calls));
  report->Add("scheduler.next_job_empty",
              static_cast<double>(traced.scheduler.next_job_empty));
  report->Add("scheduler.next_job_self_s", layers.next_job.self_s);
  report->Add("scheduler.on_complete_s", layers.on_complete.total_s);
  report->Add("scheduler.on_failed_calls",
              static_cast<double>(traced.scheduler.on_failed_calls));
  report->Add("optimizer.sample_calls",
              static_cast<double>(sampler->sample_s().size()));
  report->Add("optimizer.sample_s", layers.sample.total_s);
  AddLatencies("sample", sampler->sample_s(), report);
  report->Add("optimizer.sample_cold_ms", probes.sample_cold_ms);
  report->Add("optimizer.sample_warm_ms", probes.sample_warm_ms);
  report->Add("allocator.theta_ms", probes.theta_ms);
  report->Add("surrogate.fit_ms",
              probes.sample_cold_ms - probes.sample_warm_ms - probes.theta_ms);
  report->Add("problems.evaluate_calls",
              static_cast<double>(traced.evaluate_calls));
  report->Add("problems.evaluate_s", layers.evaluate.total_s);
  report->Add("core.resume_fast_path", resume.fast_path > 0 ? 1.0 : 0.0);
  report->Add("core.resume_replayed_records",
              static_cast<double>(resume.replayed_records));
  const double untraced_trials =
      static_cast<double>(untraced.result.history.num_trials());
  report->Add("trace.overhead_ratio", (trials / traced.wall_s) /
                                          (untraced_trials / untraced.wall_s));
  if (first) PrintLayerTable(spec, traced.wall_s, layers);
  if (!spans.WriteCsv(spans_path)) {
    std::cout << "could not write " << spans_path << "\n";
  }
}

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

std::vector<Metric> EndToEndMetrics(const Report& all) {
  auto median = [&all](const char* name) { return Median(all.values(name)); };
  return {
      {"setup_s", "s", median("setup_s")},
      {"trials_per_s", "1/s", median("trials_per_s")},
      {"driver_us_per_trial", "us", median("driver_us_per_trial")},
      {"decision_p50_ms", "ms", median("decision_s") * 1e3},
      {"decision_tail_ms", "ms", PooledTail(all, "decision") * 1e3},
      {"resume_s", "s", median("resume_s")},
      {"utilization", "ratio", median("utilization")},
      {"final_regret", "objective", median("final_regret")},
      {"trial_success_frac", "ratio", median("trial_success_frac")},
      {"peak_rss_mb", "MB", median("peak_rss_mb")},
  };
}

std::vector<Metric> PerLayerMetrics(const Report& all) {
  static const std::pair<const char*, const char*> kMedians[] = {
      {"runtime.self_s", "s"},
      {"runtime.events", "count"},
      {"runtime.events_per_s", "1/s"},
      {"runtime.useful_attempt_ratio", "ratio"},
      {"runtime.idle_s", "s"},
      {"runtime.journal.bytes", "bytes"},
      {"runtime.journal.records", "count"},
      {"runtime.journal.overhead_s", "s"},
      {"runtime.store.measurements", "count"},
      {"runtime.store.top_level", "count"},
      {"scheduler.next_job_calls", "count"},
      {"scheduler.next_job_empty", "count"},
      {"scheduler.next_job_self_s", "s"},
      {"scheduler.on_complete_s", "s"},
      {"scheduler.on_failed_calls", "count"},
      {"optimizer.sample_calls", "count"},
      {"optimizer.sample_s", "s"},
      {"optimizer.sample_cold_ms", "ms"},
      {"optimizer.sample_warm_ms", "ms"},
      {"allocator.theta_ms", "ms"},
      {"surrogate.fit_ms", "ms"},
      {"problems.evaluate_calls", "count"},
      {"problems.evaluate_s", "s"},
      {"core.resume_fast_path", "count"},
      {"core.resume_replayed_records", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kMedians) {
    metrics.push_back({name, unit, Median(all.values(name))});
  }
  metrics.push_back(
      {"optimizer.sample_tail_ms", "ms", PooledTail(all, "sample") * 1e3});
  return metrics;
}

void PrintJson(const Report& all, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (all.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << all.attempted()
      << ", \"failed\": " << all.failed() << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: tunebench --workload <name> [--seed N] [--seconds S] "
                 "[--trace 0|1] [--work-dir DIR]\n";
    return 2;
  }
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'; known:";
    for (const WorkloadSpec& w : Workloads()) std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
  }
  const WorkloadSpec& spec = *found;
  std::filesystem::create_directories(args.work_dir);
  const std::string journal = args.work_dir + "/journal.bin";

  const double deadline = Now() + args.seconds;
  Report all;
  if (!args.trace) {
    all.Merge(RunIsolated([&](Report* r) { PanelRuns(spec, r); }));
  }
  // Repetitions until the next one would overrun the time; at least one.
  double longest = 0.0;
  int rep = 0;
  for (; rep == 0 || Now() + longest < deadline; ++rep) {
    const double start = Now();
    const uint64_t seed = CombineSeeds(args.seed, static_cast<uint64_t>(rep));
    const std::string spans_path = args.work_dir + "/spans-" + spec.name +
                                   "-seed" + std::to_string(args.seed) +
                                   "-rep" + std::to_string(rep) + ".csv";
    all.Merge(RunIsolated([&](Report* r) {
      if (args.trace) {
        TracedRep(spec, seed, rep == 0, journal, spans_path, r);
      } else {
        EndToEndRep(spec, seed, rep == 0, journal, r);
      }
    }));
    longest = std::max(longest, Now() - start);
  }
  std::cout << "repetitions: " << rep << "\n";

  std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(all) : EndToEndMetrics(all);
  for (Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      all.Begin("report " + metric.name);
      all.Expect(false, metric.name + " is finite");
      metric.value = -1.0;
    }
    std::cout << metric.name << " = " << metric.value << " " << metric.unit
              << "\n";
  }
  if (args.trace) std::cout << "spans written to " << args.work_dir << "\n";
  PrintJson(all, metrics);
  return 0;
}

}  // namespace
}  // namespace tunebench

int main(int argc, char** argv) {
  try {
    return tunebench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "tunebench: " << e.what() << "\n";
    return 1;
  }
}
