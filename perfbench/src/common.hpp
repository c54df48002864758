// Shared pieces of the benchmark harness: options, the result record,
// order statistics, timing, CPU pinning and process memory.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for sockets and the WAL (inside the checkout).
  std::string work_dir = ".bench_build/run";
};

/// What one workload run produces. `metrics` holds values by name; the
/// harness checks the names against the declared metric list before
/// printing, so a workload cannot silently drop one.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Extra provenance fields (pinning, WAL filesystem, ...).
  std::map<std::string, std::string> provenance;
  /// Human-readable reasons for failed checks (the first few).
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    correct = false;
    if (problems.size() < 16) problems.push_back(why);
  }
};

/// Independent per-purpose seeds derived from the run's --seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// --- order statistics ---------------------------------------------------

/// Percentile p in [0, 100] by linear interpolation between closest ranks
/// (numpy's default). Empty input gives 0.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// First and third quartile with Python's statistics.quantiles(n=4)
/// default ("exclusive") method; needs at least 2 values.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// "q1 / q3" of `values`, for the provenance line's within-run spread.
[[nodiscard]] std::string quartile_text(const std::vector<double>& values);

/// Other tenants of a shared host only ever slow the benchmark down, and
/// they come and go within seconds, so throughput is read at this
/// percentile of short samples (repetitions or rate windows), the fast
/// end (NOTES.md, "Host speed states").
inline constexpr double kFastPercentile = 90.0;

// --- set-up -------------------------------------------------------------------

/// Every workload sets itself up at least kSetupRepeats times and until
/// kSetupBudgetS has been spent: set-ups of a millisecond or less need
/// many samples for a steady median, and longer ones several. setup_s is
/// the median of `setups`.
inline constexpr int kSetupRepeats = 5;
inline constexpr double kSetupBudgetS = 1.0;

/// Returns the allocator's free memory to the system (malloc_trim).
void release_free_memory();

/// Runs `make` (which returns an owning pointer) by that rule, appending
/// each set-up's seconds to `setups`; keeps the last one made, the
/// earlier ones freed before the next starts.
template <typename Make>
auto repeat_setup(std::vector<double>& setups, Make&& make) {
  const auto begin = Clock::now();
  decltype(make()) made;
  for (int i = 0; i < kSetupRepeats ||
                  seconds_between(begin, Clock::now()) < kSetupBudgetS;
       ++i) {
    made.reset();
    const auto t0 = Clock::now();
    made = make();
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  return made;
}

/// The same, keeping the last `keep` (at most kSetupRepeats) made, in
/// the order made modulo `keep`: set-up i fills slot i % keep.
template <typename Make>
auto repeat_setup_keep(std::vector<double>& setups, std::size_t keep,
                       Make&& make) {
  const auto begin = Clock::now();
  std::vector<decltype(make())> made(keep);
  for (std::size_t i = 0; i < static_cast<std::size_t>(kSetupRepeats) ||
                          seconds_between(begin, Clock::now()) < kSetupBudgetS;
       ++i) {
    made[i % keep].reset();
    // Hand what the freed one held back to the system, so that peak
    // memory does not grow with the number of set-ups made.
    release_free_memory();
    const auto t0 = Clock::now();
    made[i % keep] = make();
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  return made;
}

// --- open-loop latency accounting -----------------------------------------

/// One open-loop request: when it was due, and when its reply arrived
/// (reply < due never happens; a missing reply is `answered == false`).
struct OpenLoopSample {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool answered = false;  ///< false: refused, errored, or never answered
};

struct OpenLoopSummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double lateness_p99_us = 0.0;  ///< generator: sent - due
  std::uint64_t samples = 0;
  std::uint64_t failed = 0;
};

/// Latency is measured from each request's due time, not its send time,
/// so a stall that delays later sends shows up in their latency. A request
/// that was refused or never answered counts as missing any latency limit:
/// it enters the distribution at +infinity.
[[nodiscard]] OpenLoopSummary summarize_open_loop(
    const std::vector<OpenLoopSample>& samples);

/// The same, per window of `window_s` seconds of due times starting at
/// `start_s`; p50 and p99 are the medians of the windows' values, so a
/// host stall that hits one window does not set the run's figure. Samples
/// and failures are totals; lateness is over all samples.
[[nodiscard]] OpenLoopSummary summarize_open_loop_windows(
    const std::vector<OpenLoopSample>& samples, double start_s,
    double window_s);

// --- process and threads ---------------------------------------------------

/// CPUs in this process's affinity mask, ascending.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Pin the calling thread to one CPU. Threads it creates afterwards
/// inherit the mask.
bool pin_current_thread(int cpu);

[[nodiscard]] double peak_rss_mib();

/// Filesystem type name of `path` ("ext4", "tmpfs", ...).
[[nodiscard]] std::string filesystem_of(const std::string& path);

// --- workloads ---------------------------------------------------------------

Report run_sim_cm5(const Options& opt);
Report run_sim_mr(const Options& opt);
Report run_serve_read(const Options& opt);
Report run_serve_write(const Options& opt);

/// True when a decorated simulation decides exactly like a plain one.
[[nodiscard]] bool sim_decorators_transparent();

/// The harness's own arithmetic, checked on every run.
void self_check(Report& report);

}  // namespace perfbench
