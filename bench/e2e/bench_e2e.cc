// bench_e2e — the end-to-end benchmark of the five user paths: pretrain,
// search, train, serve and stream (see README.md in this directory).
//
//   bench_e2e --workload W --seed N --seconds S --trace 0|1
//             [--smoke] [--workdir DIR] [--trace-out FILE] [--commit ID]
//
// The last line of standard output is the run's record, one JSON object:
//   {"host": {...}, "digest": "...", "correct": ..., "attempted": ...,
//    "failed": ..., "violations": [...], "metrics": {name: {value, unit}}}
// with every metric the run measured. --trace 1 adds the per-layer metrics
// from spans and RuntimeStats deltas around calls into each module. run.py
// picks the metrics BENCHMARK.json lists out of the record.
// The exit code is non-zero when an output check failed.
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string_view>
#include <thread>

#include "common.h"
#include "common/jsonio.h"
#include "common/runtime_config.h"
#include "tensor/backend.h"

extern char** environ;

namespace autocts::e2e {
namespace {

/// Set-up runs at least kSetupRepeats times, and more while the repeats
/// took under kSetupSeconds (up to kMaxSetupRepeats), so a set-up of a few
/// milliseconds still reports a steady median.
constexpr int kSetupRepeats = 3;
constexpr int kMaxSetupRepeats = 25;
constexpr double kSetupSeconds = 1.0;

struct Args {
  std::string workload;
  RunConfig run;
  std::string trace_out;
  std::string commit = "unknown";
};

int Usage(const std::string& why) {
  std::cerr << "bench_e2e: " << why << "\n"
            << "usage: bench_e2e --workload pretrain|search|train|serve|stream"
               " --seed N --seconds S --trace 0|1 [--smoke] [--workdir DIR]"
               " [--trace-out FILE] [--commit ID]\n";
  return 2;
}

/// Shortest text that reads back as exactly `v`.
std::string Num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

/// AUTOCTS_* variables change the program under test (AUTOCTS_NO_PLAN,
/// AUTOCTS_BACKEND, ...), so a run with any of them set measures another
/// program than the commit's.
std::vector<std::string> AutoctsEnv() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "AUTOCTS_", 8) == 0) found.push_back(*e);
  }
  return found;
}

std::unique_ptr<Workload> Make(const std::string& name, const RunConfig& c) {
  if (name == "pretrain") return MakePretrainWorkload(c);
  if (name == "search") return MakeSearchWorkload(c);
  if (name == "train") return MakeTrainWorkload(c);
  if (name == "serve") return MakeServeWorkload(c);
  if (name == "stream") return MakeStreamWorkload(c);
  return nullptr;
}

std::string HostJson(const Args& args) {
  JsonWriter w;
  w.BeginObject();
  w.Field("workload", args.workload);
  w.Field("seed", args.run.seed);
  w.Field("seconds", args.run.seconds);
  w.Field("trace", args.run.trace);
  w.Field("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  w.Field("pool_threads", kPoolThreads);
  w.Field("backend", kernels::ActiveBackend().name);
  w.Field("compiler", std::string("g++ ") + __VERSION__);
  w.Field("commit", args.commit);
  w.Key("runtime_config");
  w.Raw(GlobalRuntimeConfig().ToJson());
  w.EndObject();
  return w.str();
}

/// Per-layer metrics computed from the span log itself.
void ReportTrace(const Args& args, Report* report) {
  const std::vector<SpanRecord> spans = Tracer::Spans();
  const std::vector<SelfTime> table = SelfTimes(spans);
  std::printf("[e2e] self time by span (%zu spans)\n", spans.size());
  std::printf("  %-32s %-11s %8s %11s %11s\n", "span", "layer", "count",
              "total_s", "self_s");
  for (const SelfTime& t : table) {
    std::printf("  %-32s %-11s %8lld %11.4f %11.4f\n", t.name.c_str(),
                t.layer.c_str(), static_cast<long long>(t.count), t.total_s,
                t.self_s);
  }
  for (const char* layer : kLayers) {
    report->Set(std::string(layer) + ".self_s", LayerSelfSeconds(table, layer), "s");
  }
  const double attributed = AttributedPct(spans);
  report->Set("trace.attributed_pct", attributed, "%");
  // The batch paths are sequences of calls into the layers: time their
  // spans miss is a missing probe, not waiting.
  if (args.workload == "pretrain" || args.workload == "search" ||
      args.workload == "train") {
    report->Check(attributed >= 95.0, "spans cover only " + Num(attributed) +
                                          "% of the measured time");
  }
  // What recording this run's spans cost, against the measured time.
  double measured_s = 0.0;
  for (const SpanRecord& s : spans) {
    if (std::string_view(s.layer) == "bench") measured_s += s.seconds();
  }
  const double span_s = Tracer::MeasureSpanCostNs(10000) * 1e-9;
  report->Set("trace.overhead_pct",
              measured_s > 0 ? 100.0 * static_cast<double>(spans.size()) * span_s /
                                   measured_s
                             : 0.0,
              "%");
  if (!args.trace_out.empty()) {
    report->Check(Tracer::WriteChromeTrace(args.trace_out),
                  "cannot write " + args.trace_out);
  }
}

std::string DigestHex(const Report& report) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(report.digest));
  return digest;
}

std::string RecordJson(const Args& args, const Report& report) {
  JsonWriter w;
  w.BeginObject();
  w.Key("host");
  w.Raw(HostJson(args));
  w.Field("digest", DigestHex(report));
  w.Field("correct", report.violations.empty());
  w.Field("attempted", report.attempted);
  w.Field("failed", report.failed);
  w.Key("violations");
  w.BeginArray();
  for (const std::string& v : report.violations) w.Value(v);
  w.EndArray();
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, metric] : report.metrics) {
    w.Key(name);
    w.BeginObject();
    w.Key("value");
    w.Raw(std::isfinite(metric.first) ? Num(metric.first) : "null");
    w.Field("unit", metric.second);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

/// Sets the workload up, runs it and prints every metric it measured.
Report RunOne(const Args& args) {
  const RunConfig& run = args.run;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  double setup_total = 0.0;
  for (int i = 0; i < (run.smoke ? 1 : kMaxSetupRepeats); ++i) {
    if (i >= kSetupRepeats && setup_total >= kSetupSeconds) break;
    workload.reset();
    workload = Make(args.workload, run);
    const Clock::time_point t0 = Clock::now();
    workload->Setup();
    setup_s.push_back(SecondsSince(t0));
    setup_total += setup_s.back();
  }

  Report report;
  Tracer::Clear();
  Tracer::Enable(run.trace);
  workload->Run(&report);
  Tracer::Enable(false);
  workload.reset();
  report.Set("setup_s", Percentile(setup_s, 50), "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (run.trace) ReportTrace(args, &report);
  for (const auto& [name, metric] : report.metrics) {
    report.Check(std::isfinite(metric.first), name + " is not finite");
  }

  for (const auto& [name, metric] : report.metrics) {
    std::cout << "[e2e] " << args.workload << " " << name << " = "
              << Num(metric.first) << " " << metric.second << "\n";
  }
  for (const std::string& v : report.violations) {
    std::cout << "[e2e] CHECK FAILED: " << v << "\n";
  }
  std::cout << "[e2e] " << args.workload << " digest " << DigestHex(report)
            << " attempted " << report.attempted << " failed " << report.failed
            << "\n";
  return report;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.run.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.run.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.run.seconds = std::atof(v.c_str());
      have_seconds = args.run.seconds > 0;
    } else if (flag == "--trace") {
      args.run.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (flag == "--workdir") {
      args.run.workdir = v;
    } else if (flag == "--trace-out") {
      args.trace_out = v;
    } else if (flag == "--commit") {
      args.commit = v;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace 0|1 are required");
  }
  if (Make(args.workload, args.run) == nullptr) {
    return Usage("unknown workload '" + args.workload + "'");
  }
#ifndef __OPTIMIZE__
  std::cerr << "bench_e2e: refusing to measure an unoptimised build\n";
  return 3;
#endif
  const std::vector<std::string> env = AutoctsEnv();
  if (!env.empty()) {
    std::cerr << "bench_e2e: refusing to run with " << env.front()
              << " set: AUTOCTS_* variables change the program under test\n";
    return 3;
  }
  if (args.run.workdir.empty()) {
    args.run.workdir = "bench_e2e-work-" + std::to_string(::getpid());
  }
  std::filesystem::create_directories(args.run.workdir);

  const Report report = RunOne(args);
  std::filesystem::remove_all(args.run.workdir);
  std::cout << RecordJson(args, report) << std::endl;
  return report.violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace autocts::e2e

int main(int argc, char** argv) { return autocts::e2e::Main(argc, argv); }
