// The repository's benchmark program. One process runs one named workload as a
// closed loop with a single client: each operation is a full
// ExternalSorter::Sort (or an ORDER BY ... LIMIT K query) from a generated
// input file to an output file, and the next starts only after the previous
// one's output has been checked.
//
//   twrs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   twrs_perfbench --reference [--seed <n>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// phase by phase through the library's public entry points, with a span
// around each call, and prints the per-layer metrics. --reference prints the
// gen + merge split of 2WRS, RS and LSS on uniform and reverse input. The
// last line of standard output is always a JSON object (workload modes).
// README.md lists the workloads, the metrics and the library calls used.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/record_source.h"
#include "core/run_generator.h"
#include "core/run_sink.h"
#include "exec/executor.h"
#include "io/counting_env.h"
#include "io/env.h"
#include "merge/external_sorter.h"
#include "merge/sort_phases.h"
#include "select/dual_heap_selector.h"
#include "workload/generators.h"

#include "inputs.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using twrs::RunGenAlgorithm;

// The ROADMAP north-star profile: 4M 8-byte records, 64Ki-record memory,
// fan-in 10, posix Env on a real scratch directory.
constexpr uint64_t kRecords = 4000000;
constexpr size_t kMemory = 64 * 1024;
constexpr size_t kFanIn = 10;
// K of the top-K workload and of the select.s probe: equal to the memory
// budget, so the planner picks dual-heap selection.
constexpr size_t kTopK = kMemory;
// Set-up rounds per run; setup_s is their median.
constexpr int kSetupRounds = 3;

struct Workload {
  const char* name;
  InputKind input;
  RunGenAlgorithm algorithm;
  size_t memory_records;
  uint64_t limit;  // ORDER BY key LIMIT `limit`; 0 sorts everything
  // The service planner's pooled path: 2 executor workers, async run
  // flushing, a 2-partition final merge, no read-ahead.
  bool pooled;
  // Structural check from the method: runs the sort must form (0 = none).
  uint64_t expected_runs;
};

constexpr size_t kLssMemory = 16 * 1024;

const Workload kWorkloads[] = {
    {"uniform-2wrs", InputKind::kUniform,
     RunGenAlgorithm::kTwoWayReplacementSelection, kMemory, 0, false, 0},
    // The paper's claim: 2WRS turns reverse-sorted input into one run.
    {"reverse-2wrs", InputKind::kReverse,
     RunGenAlgorithm::kTwoWayReplacementSelection, kMemory, 0, false, 1},
    // Load-sort-store writes exactly ceil(N / M) runs.
    {"uniform-lss-pooled", InputKind::kUniform, RunGenAlgorithm::kLoadSortStore,
     kLssMemory, 0, true, (kRecords + kLssMemory - 1) / kLssMemory},
    {"topk-reverse", InputKind::kReverse,
     RunGenAlgorithm::kTwoWayReplacementSelection, kMemory, kTopK, false, 0},
};

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// User + system CPU seconds of the whole process, all threads included.
double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double PeakRssBytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// One named metric of the result line, in print order.
struct Metric {
  const char* name;
  const char* unit;
  std::vector<double> samples;  // the reported value is their median
};

class Metrics {
 public:
  void Add(const char* name, const char* unit, double value) {
    for (Metric& m : metrics_) {
      if (std::strcmp(m.name, name) == 0) {
        m.samples.push_back(value);
        return;
      }
    }
    metrics_.push_back(Metric{name, unit, {value}});
  }

  std::string Json() const {
    std::string out = "{";
    char buf[160];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name,
                    Median(metrics_[i].samples), metrics_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool reference = false;
};

// Removes the run's scratch directory on every exit path.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    // Drop the shared parent too once the last concurrent run has left it.
    std::filesystem::remove(std::filesystem::path(path_).parent_path(), ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  std::string File(const char* name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

twrs::ExternalSortOptions SortOptions(const Workload& w,
                                      const std::string& temp_dir,
                                      twrs::Executor* executor) {
  twrs::ExternalSortOptions o;
  o.algorithm = w.algorithm;
  o.memory_records = w.memory_records;
  o.fan_in = kFanIn;
  o.limit = w.limit;
  o.temp_dir = temp_dir;
  if (w.pooled) {
    // As the sort service wires it: worker_threads > 0 switches pool
    // borrowing on; the pool's size is the executor's capacity.
    o.parallel.worker_threads = 1;
    o.parallel.executor = executor;
    o.parallel.final_merge_threads = 2;
  }
  return o;
}

// Outcome of one operation.
struct Op {
  bool ok = true;
  std::string why;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;

  void Fail(std::string reason) {
    if (ok) why = std::move(reason);
    ok = false;
  }
};

// Per-layer values of one traced operation.
struct TracedOp {
  Op op;
  double source_read_s = 0, form_s = 0, select_s = 0;
  double rungen_s = 0, merge_s = 0, merge_cpu_s = 0;
  double traced_s = 0, self_s = 0;
  uint64_t core_bytes_written = 0, runs = 0;
  double avg_run_length = 0;
  uint64_t merge_steps = 0, merge_records_written = 0;
  uint64_t merge_bytes_read = 0, merge_bytes_written = 0;
};

class Bench {
 public:
  Bench(const Workload& w, uint64_t seed)
      : w_(w),
        seed_(seed),
        dir_(".bench_work/" + std::string(w.name) + "-" +
             std::to_string(getpid())),
        input_(dir_.File("input.dat")),
        output_(dir_.File("output.dat")),
        executor_(twrs::ExecutorOptions{2}),
        options_(SortOptions(w, dir_.File("tmp"), &executor_)) {}

  // Writes the input and computes what the checks compare against.
  // `reference` also computes the K smallest keys (top-K checks).
  bool Setup(bool reference) {
    if (!WriteInput(w_.input, kRecords, seed_, input_, &input_hash_)) {
      std::fprintf(stderr, "cannot write %s\n", input_.c_str());
      return false;
    }
    if (reference && !SmallestK(input_, kTopK, &smallest_k_)) {
      std::fprintf(stderr, "cannot read %s\n", input_.c_str());
      return false;
    }
    return true;
  }

  // One timed operation: the Sort call, then the output checks.
  Op RunOp(twrs::ExternalSortResult* sort_result = nullptr) {
    Op op;
    twrs::CountingEnv env(twrs::Env::Default());
    twrs::FileRecordSource source(&env, input_);
    twrs::ExternalSorter sorter(&env, options_);
    twrs::ExternalSortResult result;
    const double cpu0 = CpuSeconds();
    const Clock::time_point t0 = Clock::now();
    const twrs::Status s = sorter.Sort(&source, output_, &result);
    op.wall_s = Seconds(t0, Clock::now());
    op.cpu_s = CpuSeconds() - cpu0;
    op.read_bytes = env.bytes_read();
    op.write_bytes = env.bytes_written();
    if (!s.ok()) op.Fail("Sort: " + s.ToString());
    if (!source.status().ok()) op.Fail("input: " + source.status().ToString());
    if (op.ok) CheckResult(result, &op);
    if (sort_result != nullptr) *sort_result = result;
    return op;
  }

  // One operation run layer by layer, each call inside a span of `trace`.
  TracedOp RunTracedOp(uint64_t id, twrs::VectorSource* keys, Trace* trace) {
    TracedOp t;
    const uint32_t root = trace->Begin(id, "op");
    twrs::CountingEnv env(twrs::Env::Default());

    // io: the input drained through the library's file reader alone.
    {
      twrs::FileRecordSource source(&env, input_);
      const uint32_t span = trace->Begin(id, "io.source_read");
      twrs::Key key = 0;
      uint64_t n = 0;
      while (source.Next(&key)) ++n;
      t.source_read_s = trace->End(span).seconds();
      if (!source.status().ok() || n != kRecords) {
        t.op.Fail("io.source_read: read " + std::to_string(n) + " records");
      }
    }

    // core: run formation over the preloaded input, no file I/O.
    uint64_t formed_runs = 0;
    {
      keys->Reset();
      twrs::CountingRunSink sink;
      twrs::RunGenStats stats;
      std::unique_ptr<twrs::RunGenerator> generator =
          twrs::MakeRunGenerator(w_.algorithm, w_.memory_records);
      const uint32_t span = trace->Begin(id, "core.form");
      const twrs::Status s = generator->Generate(keys, &sink, &stats);
      t.form_s = trace->End(span).seconds();
      formed_runs = stats.num_runs();
      if (!s.ok()) t.op.Fail("core.form: " + s.ToString());
      if (stats.total_records != kRecords) t.op.Fail("core.form: lost records");
    }

    // select: the bounded dual-heap selector over the preloaded input.
    {
      keys->Reset();
      std::vector<twrs::Key> top;
      const uint32_t span = trace->Begin(id, "select");
      twrs::SelectTopK(keys, kTopK, twrs::SelectOrder::kAscending, &top);
      t.select_s = trace->End(span).seconds();
      if (top != smallest_k_) t.op.Fail("select: not the K smallest keys");
    }

    // The operation itself: phase by phase for a sort, as Sort runs them.
    twrs::FileRecordSource source(&env, input_);
    twrs::ExternalSortResult result;
    const uint32_t sort_span = trace->Begin(id, "sort.traced");
    if (w_.limit > 0) {
      twrs::ExternalSorter sorter(&env, options_);
      const twrs::Status s = sorter.Sort(&source, output_, &result);
      if (!s.ok()) t.op.Fail("Sort: " + s.ToString());
    } else {
      const twrs::Status s = TracedSort(id, &env, &source, trace, &t, &result);
      if (!s.ok()) t.op.Fail("traced sort: " + s.ToString());
    }
    t.traced_s = trace->End(sort_span).seconds();
    t.self_s = trace->SelfSeconds(sort_span);
    trace->End(root);

    if (!source.status().ok()) t.op.Fail("input: " + source.status().ToString());
    if (t.op.ok) CheckResult(result, &t.op);
    t.runs = result.run_gen.num_runs();
    t.avg_run_length = result.run_gen.AverageRunLengthRelative(w_.memory_records);
    if (w_.limit == 0 && formed_runs != t.runs) {
      t.op.Fail("core.form formed " + std::to_string(formed_runs) +
                " runs, the sort " + std::to_string(t.runs));
    }
    return t;
  }

  const std::string& input() const { return input_; }

 private:
  // PrepareSortContext and the three SortPhase::Run calls, wrapped in a
  // CountingEnv as ExternalSorter::Sort wraps its Env.
  twrs::Status TracedSort(uint64_t id, twrs::CountingEnv* base,
                          twrs::RecordSource* source, Trace* trace,
                          TracedOp* t, twrs::ExternalSortResult* result) {
    twrs::CountingEnv env(base);
    twrs::SortContext context;
    uint32_t span = trace->Begin(id, "sort.prepare");
    twrs::Status s = twrs::PrepareSortContext(&env, options_, &context);
    trace->End(span);
    if (!s.ok()) return s;

    twrs::RunGenerationPhase run_generation(source);
    const uint64_t written0 = env.bytes_written();
    span = trace->Begin(id, "core.rungen");
    s = run_generation.Run(&context);
    t->rungen_s = trace->End(span).seconds();
    t->core_bytes_written = env.bytes_written() - written0;
    if (!s.ok()) return s;

    twrs::MergePlanningPhase planning;
    span = trace->Begin(id, "merge.plan");
    s = planning.Run(&context);
    trace->End(span);
    if (!s.ok()) return s;

    twrs::FinalMergePhase final_merge(output_);
    const uint64_t read1 = env.bytes_read();
    const uint64_t written1 = env.bytes_written();
    const double cpu1 = CpuSeconds();
    span = trace->Begin(id, "merge");
    s = final_merge.Run(&context);
    t->merge_s = trace->End(span).seconds();
    t->merge_cpu_s = CpuSeconds() - cpu1;
    t->merge_bytes_read = env.bytes_read() - read1;
    t->merge_bytes_written = env.bytes_written() - written1;
    t->merge_steps = context.result.merge.merge_steps;
    t->merge_records_written = context.result.merge.records_written;
    if (!s.ok()) return s;

    span = trace->Begin(id, "sort.cleanup");
    s = env.RemoveDir(context.sort_dir);
    trace->End(span);
    *result = context.result;
    return s;
  }

  void CheckResult(const twrs::ExternalSortResult& result, Op* op) {
    std::string why;
    if (w_.limit > 0) {
      if (result.topk_strategy != twrs::TopKStrategy::kDualHeap) {
        op->Fail("planner did not pick dual-heap selection");
      } else if (!CheckExact(output_, smallest_k_, &why)) {
        op->Fail(why);
      }
      return;
    }
    if (w_.expected_runs != 0 &&
        result.run_gen.num_runs() != w_.expected_runs) {
      op->Fail("formed " + std::to_string(result.run_gen.num_runs()) +
               " runs, expected " + std::to_string(w_.expected_runs));
    } else if (!CheckSorted(output_, input_hash_, &why)) {
      op->Fail(why);
    }
  }

  const Workload& w_;
  const uint64_t seed_;
  WorkDir dir_;
  std::string input_;
  std::string output_;
  twrs::Executor executor_;
  twrs::ExternalSortOptions options_;
  MultisetHash input_hash_;
  std::vector<int64_t> smallest_k_;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.Json().c_str());
  std::fflush(stdout);
}

void ReportFailure(const char* what, uint64_t n, const Op& op) {
  std::fprintf(stderr, "%s %" PRIu64 " failed: %s\n", what, n, op.why.c_str());
}

// End-to-end run: set-up rounds, then timed operations for --seconds.
int RunEndToEnd(const Workload& w, const Args& args,
                Clock::time_point process_start) {
  Bench bench(w, args.seed);
  bool correct = true;
  std::vector<double> setup;
  Clock::time_point round_start = process_start;
  for (int round = 0; round < kSetupRounds; ++round) {
    if (!bench.Setup(w.limit > 0)) return 1;
    const Op warmup = bench.RunOp();
    if (!warmup.ok) {
      ReportFailure("warm-up", round, warmup);
      correct = false;
    }
    const Clock::time_point now = Clock::now();
    setup.push_back(Seconds(round_start, now));
    round_start = now;
  }

  Metrics m;
  uint64_t attempted = 0, failed = 0;
  const Clock::time_point start = Clock::now();
  while (attempted == 0 || Seconds(start, Clock::now()) < args.seconds) {
    const Op op = bench.RunOp();
    ++attempted;
    if (!op.ok) {
      ReportFailure("operation", attempted, op);
      ++failed;
      continue;
    }
    m.Add("sort_s", "s", op.wall_s);
    m.Add("sort_cpu_s", "s", op.cpu_s);
    m.Add("read_bytes", "bytes", static_cast<double>(op.read_bytes));
    m.Add("write_bytes", "bytes", static_cast<double>(op.write_bytes));
  }
  m.Add("peak_rss_bytes", "bytes", PeakRssBytes());
  for (double s : setup) m.Add("setup_s", "s", s);
  PrintResult(correct, attempted, failed, m);
  return correct && failed == 0 ? 0 : 1;
}

// Traced run: the same workload layer by layer; spans go to
// .bench_traces/<workload>-seed<seed>.jsonl when the run ends.
int RunTraced(const Workload& w, const Args& args) {
  Bench bench(w, args.seed);
  if (!bench.Setup(/*reference=*/true)) return 1;
  std::vector<int64_t> keys;
  if (!ReadKeys(bench.input(), &keys)) return 1;
  twrs::VectorSource source(std::move(keys));
  bool correct = true;
  const Op warmup = bench.RunOp();
  if (!warmup.ok) {
    ReportFailure("warm-up", 0, warmup);
    correct = false;
  }

  Trace trace;
  Metrics m;
  uint64_t attempted = 0, failed = 0;
  const Clock::time_point start = Clock::now();
  while (attempted == 0 || Seconds(start, Clock::now()) < args.seconds) {
    const TracedOp t = bench.RunTracedOp(attempted, &source, &trace);
    ++attempted;
    if (!t.op.ok) {
      ReportFailure("traced operation", attempted, t.op);
      ++failed;
      continue;
    }
    const bool phased = w.limit == 0;  // top-K runs no sort phases
    m.Add("io.source_read_s", "s", t.source_read_s);
    m.Add("core.form_s", "s", t.form_s);
    m.Add("core.rungen_s", "s", t.rungen_s);
    m.Add("core.sink_s", "s",
          phased ? t.rungen_s - t.form_s - t.source_read_s : 0.0);
    m.Add("core.bytes_written", "bytes", static_cast<double>(t.core_bytes_written));
    m.Add("core.runs", "count", static_cast<double>(t.runs));
    m.Add("core.avg_run_length", "x_memory", t.avg_run_length);
    m.Add("merge.s", "s", t.merge_s);
    m.Add("merge.cpu_s", "s", t.merge_cpu_s);
    m.Add("merge.steps", "count", static_cast<double>(t.merge_steps));
    m.Add("merge.records_written", "count",
          static_cast<double>(t.merge_records_written));
    m.Add("merge.bytes_read", "bytes", static_cast<double>(t.merge_bytes_read));
    m.Add("merge.bytes_written", "bytes",
          static_cast<double>(t.merge_bytes_written));
    m.Add("select.s", "s", t.select_s);
    m.Add("sort.traced_s", "s", t.traced_s);
    m.Add("sort.self_s", "s", t.self_s);
  }

  std::filesystem::create_directories(".bench_traces");
  const std::string path = ".bench_traces/" + std::string(w.name) + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (!trace.WriteJsonLines(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    correct = false;
  }
  PrintResult(correct, attempted, failed, m);
  return correct && failed == 0 ? 0 : 1;
}

// The ROADMAP north-star table: gen + merge seconds (median of three
// sorts) of 2WRS, RS and LSS, serial, on uniform and reverse input.
int RunReference(const Args& args) {
  constexpr int kReps = 3;
  const RunGenAlgorithm algorithms[] = {
      RunGenAlgorithm::kTwoWayReplacementSelection,
      RunGenAlgorithm::kReplacementSelection, RunGenAlgorithm::kLoadSortStore};
  std::printf("| input | algorithm | runs | gen s | merge s | total s |\n");
  std::printf("|---|---|---|---|---|---|\n");
  bool correct = true;
  for (InputKind input : {InputKind::kUniform, InputKind::kReverse}) {
    for (RunGenAlgorithm algorithm : algorithms) {
      const Workload w{"reference", input, algorithm, kMemory, 0, false, 0};
      Bench bench(w, args.seed);
      if (!bench.Setup(false)) return 1;
      std::vector<double> gen, merge, total;
      twrs::ExternalSortResult result;
      for (int rep = 0; rep < kReps; ++rep) {
        const Op op = bench.RunOp(&result);
        if (!op.ok) {
          ReportFailure("reference sort", rep, op);
          correct = false;
        }
        gen.push_back(result.run_gen_seconds);
        merge.push_back(result.merge_seconds);
        total.push_back(result.run_gen_seconds + result.merge_seconds);
      }
      std::printf("| %s | %s | %" PRIu64 " | %.2f | %.2f | %.2f |\n",
                  InputKindName(input), twrs::RunGenAlgorithmName(algorithm),
                  result.run_gen.num_runs(), Median(gen), Median(merge),
                  Median(total));
      std::fflush(stdout);
    }
  }
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reference") {
      args->reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (!(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args->reference || !args->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n       %s --reference [--seed <n>]\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (args.reference) return RunReference(args);
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      return args.trace ? RunTraced(w, args)
                        : RunEndToEnd(w, args, process_start);
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
