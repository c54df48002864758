// Benchmark harness: one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Prints a provenance line, then as its LAST stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the per-layer set from a
// separately traced run. NOTES.md explains every workload and metric.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},       {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},   {"peak_rss_mib", "MiB"},
    {"setup_s", "s"},           {"kill_rate", "ratio"},
    {"overprovision", "ratio"},
};

const MetricDef kPerLayer[] = {
    {"sim.self_s", "s"},
    {"sim.events", "count"},
    {"sim.self_ns_per_event", "ns"},
    {"sim.utilization", "ratio"},
    {"sim.bounded_slowdown", "ratio"},
    {"core.estimate_s", "s"},
    {"core.estimate_calls", "count"},
    {"core.preview_s", "s"},
    {"core.preview_calls", "count"},
    {"core.preview_epoch_calls", "count"},
    {"core.memo_hit_ratio", "ratio"},
    {"core.feedback_s", "s"},
    {"core.feedback_calls", "count"},
    {"trace.next_s", "s"},
    {"trace.records", "count"},
    {"sched.pick_s", "s"},
    {"sched.pick_calls", "count"},
    {"sched.picks_per_start", "ratio"},
    {"net.encode_s", "s"},
    {"net.decode_s", "s"},
    {"net.bytes_per_request", "B"},
    {"net.protocol_errors", "count"},
    {"net.backpressure_rejects", "count"},
    {"svc.submit_s", "s"},
    {"svc.preview_s", "s"},
    {"svc.feedback_s", "s"},
    {"svc.store_hit_ratio", "ratio"},
    {"svc.batch_size_mean", "count"},
    {"svc.wal_fsyncs_per_op", "ratio"},
    {"svc.wal_bytes_per_op", "B"},
    {"svc.wal_slowdown", "ratio"},
    {"svc.queue_wait_p50_us", "us"},
    {"svc.queue_wait_p99_us", "us"},
    {"match.rank_s", "s"},
    {"match.prefiltered_ratio", "ratio"},
    {"match.fallback_ratio", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.obs_overhead", "ratio"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<sim-cm5|sim-mr|serve-read|serve-write> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0) || opt.seconds > 120.0) {
    usage("--seconds must be in (0, 120]");
  }

  Report report;
  try {
    if (opt.workload == "sim-cm5") {
      report = run_sim_cm5(opt);
    } else if (opt.workload == "sim-mr") {
      report = run_sim_mr(opt);
    } else if (opt.workload == "serve-read") {
      report = run_serve_read(opt);
    } else if (opt.workload == "serve-write") {
      report = run_serve_write(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  self_check(report);
  if (report.attempted == 0) report.fail("no operation was attempted");

  // This process's share of the provenance (run.py adds the build and
  // machine fields): seed, CPU set, pinning, WAL filesystem.
  report.provenance["workload"] = opt.workload;
  report.provenance["seed"] = std::to_string(opt.seed);
  report.provenance["seconds"] = number(opt.seconds);
  report.provenance["trace"] = opt.trace ? "1" : "0";
  std::string prov;
  for (const auto& [k, v] : report.provenance) {
    if (!prov.empty()) prov += ", ";
    prov += "\"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
  }
  std::printf("{\"provenance\": {%s}}\n", prov.c_str());
  for (const auto& p : report.problems) {
    std::printf("check failed: %s\n", p.c_str());
  }

  std::string metrics;
  const MetricDef* defs = opt.trace ? kPerLayer : kEndToEnd;
  const std::size_t ndefs =
      opt.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (std::size_t i = 0; i < ndefs; ++i) {
    // A layer the workload never reaches did no work: its per-layer
    // metrics read 0. End-to-end metrics have no such default.
    if (opt.trace) report.metrics.try_emplace(defs[i].name, 0.0);
    const auto it = report.metrics.find(defs[i].name);
    if (it == report.metrics.end()) {
      std::fprintf(stderr, "perfbench: internal error: metric %s missing\n",
                   defs[i].name);
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(defs[i].name) + "\": {\"value\": " +
               number(it->second) + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  // A run that failed a check gives no numbers.
  if (!report.correct) metrics.clear();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
