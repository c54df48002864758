// sim-cm5 and sim-mr: the simulators at cluster scale.
//
// Each run sets its workload up several times (setup_s is their median),
// then runs one replica of the simulation per CPU (at most kMaxReplicas),
// each repeating whole simulations until --seconds is used up. Every
// repetition must reproduce the first one's result digest and satisfy the
// engine's accounting identities; a repetition that does not is a failed
// check and the run reports no numbers.
//
//   sim-cm5  sim::simulate over a streamed Cm5JobStream, successive
//            approximation with implicit feedback (the paper's setup).
//   sim-mr   sim::simulate_mr (the vector engine, dims = 1) over the same
//            kind of trace, materialized, with the quantile estimator
//            (core::QuantileEstimator over ml::OnlineQuantileRegressor)
//            and explicit feedback.
#include <algorithm>
#include <barrier>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/estimator.hpp"
#include "core/factory.hpp"
#include "core/multi_resource.hpp"
#include "obs/metrics.hpp"
#include "sched/factory.hpp"
#include "sched/policy.hpp"
#include "sim/mr_simulator.hpp"
#include "sim/simulator.hpp"
#include "trace/cm5_model.hpp"
#include "trace/job_stream.hpp"
#include "trace/scenario.hpp"

namespace perfbench {
namespace {

using namespace resmatch;

// Sizes fixed by the benchmark (NOTES.md, "Workloads").
constexpr std::size_t kCm5Jobs = 600000;
constexpr std::size_t kMrJobs = 600000;
constexpr std::size_t kMachines = 40000;
/// sim-mr's quantile target.
constexpr double kMrTau = 0.5;
constexpr std::size_t kMinReps = 2;
/// Replicas of the untraced simulation, one per CPU from the top of the
/// process's CPU set.
constexpr std::size_t kMaxReplicas = 4;
/// The latencies pool the windows of the repetitions whose rate is at or
/// above this percentile of all rates: the fast end, as for throughput,
/// with enough windows (about 1500 at --seconds 25) that ten or more lie
/// beyond the p99.
constexpr double kFastRepsPercentile = 80.0;
/// Start attempts per latency window (host time per start attempt is
/// measured over windows of this many, about 10 ms of work: shorter
/// windows resolve the host's sub-millisecond speed states and swing with
/// them).
constexpr std::uint64_t kWindowStarts = 8192;

// --- decorators ------------------------------------------------------------
//
// Each forwards to the wrapped object unchanged and only counts or times
// the call, so a decorated simulation makes the same decisions as an
// undecorated one (checked on every traced run).

class TimedStream final : public trace::JobStream {
 public:
  explicit TimedStream(trace::JobStream& inner) : inner_(&inner) {}

  [[nodiscard]] std::optional<trace::JobRecord> next() override {
    const auto t0 = Clock::now();
    auto r = inner_->next();
    next_s += seconds_between(t0, Clock::now());
    if (r) ++records;
    return r;
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::size_t size_hint() const override {
    return inner_->size_hint();
  }
  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }

  double next_s = 0.0;
  std::uint64_t records = 0;

 private:
  trace::JobStream* inner_;
};

/// Times every estimator call. It also counts the engine's preview-memo
/// checks: the engine stamps a queued job with preview_epoch() right
/// after each preview() (not a check), and otherwise calls
/// preview_epoch() to ask whether the stored preview is still current; a
/// check followed at once by preview() missed.
class TimedEstimator final : public core::Estimator {
 public:
  explicit TimedEstimator(core::Estimator& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] MiB estimate(const trace::JobRecord& job,
                             const core::SystemState& state) override {
    last_ = Last::kOther;
    const auto t0 = Clock::now();
    const MiB v = inner_->estimate(job, state);
    estimate_s += seconds_between(t0, Clock::now());
    ++estimate_calls;
    return v;
  }
  [[nodiscard]] MiB preview(const trace::JobRecord& job,
                            const core::SystemState& state) const override {
    if (last_ == Last::kCheck) ++memo_misses;
    last_ = Last::kPreview;
    const auto t0 = Clock::now();
    const MiB v = inner_->preview(job, state);
    preview_s += seconds_between(t0, Clock::now());
    ++preview_calls;
    return v;
  }
  [[nodiscard]] std::optional<std::uint64_t> preview_epoch(
      const trace::JobRecord& job) const override {
    if (last_ == Last::kPreview) {
      last_ = Last::kOther;
    } else {
      ++memo_checks;
      last_ = Last::kCheck;
    }
    const auto t0 = Clock::now();
    auto e = inner_->preview_epoch(job);
    preview_s += seconds_between(t0, Clock::now());
    ++preview_epoch_calls;
    return e;
  }
  void cancel(const trace::JobRecord& job, MiB granted) override {
    last_ = Last::kOther;
    inner_->cancel(job, granted);
  }
  void feedback(const trace::JobRecord& job,
                const core::Feedback& fb) override {
    last_ = Last::kOther;
    const auto t0 = Clock::now();
    inner_->feedback(job, fb);
    feedback_s += seconds_between(t0, Clock::now());
    ++feedback_calls;
  }
  void set_ladder(core::CapacityLadder ladder) override {
    ladder_ = ladder;
    inner_->set_ladder(std::move(ladder));
  }

  [[nodiscard]] double memo_hit_ratio() const {
    return memo_checks == 0 ? 0.0
                            : static_cast<double>(memo_checks - memo_misses) /
                                  static_cast<double>(memo_checks);
  }

  double estimate_s = 0.0;
  std::uint64_t estimate_calls = 0;
  mutable double preview_s = 0.0;
  mutable std::uint64_t preview_calls = 0;
  mutable std::uint64_t preview_epoch_calls = 0;
  mutable std::uint64_t memo_checks = 0;
  mutable std::uint64_t memo_misses = 0;
  double feedback_s = 0.0;
  std::uint64_t feedback_calls = 0;

 private:
  enum class Last { kOther, kPreview, kCheck };
  core::Estimator* inner_;
  mutable Last last_ = Last::kOther;
};

/// Counts picks and stamps the clock once per kWindowStarts start
/// attempts (the latency windows, in every run; the first window opens at
/// the first pick, after simulate()'s own set-up). A pick the engine then
/// fails to start still counts as an attempt. With `timed` it also times
/// every pick_next call (traced runs only).
class WindowedPolicy final : public sched::SchedulingPolicy {
 public:
  WindowedPolicy(sched::SchedulingPolicy& inner, bool timed)
      : inner_(&inner), timed_(timed) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] std::optional<std::size_t> pick_next(
      const std::deque<sched::QueuedJob>& queue,
      const sched::ClusterView& cluster,
      const std::vector<sched::RunningJobInfo>& running,
      Seconds now) override {
    if (pick_calls == 0) last_ = Clock::now();
    std::optional<std::size_t> pick;
    if (timed_) {
      const auto t0 = Clock::now();
      pick = inner_->pick_next(queue, cluster, running, now);
      pick_s += seconds_between(t0, Clock::now());
    } else {
      pick = inner_->pick_next(queue, cluster, running, now);
    }
    ++pick_calls;
    if (pick && ++starts_ % kWindowStarts == 0) {
      const auto t = Clock::now();
      window_us_per_start.push_back(seconds_between(last_, t) * 1e6 /
                                    static_cast<double>(kWindowStarts));
      last_ = t;
    }
    return pick;
  }

  double pick_s = 0.0;
  std::uint64_t pick_calls = 0;
  std::vector<double> window_us_per_start;

 private:
  sched::SchedulingPolicy* inner_;
  bool timed_;
  std::uint64_t starts_ = 0;
  Clock::time_point last_;
};

// --- result digests and identities -----------------------------------------

/// Every decision-derived field of a result, compared bitwise: the same
/// decisions give the same arithmetic, so any difference is a changed
/// decision.
struct Digest {
  std::vector<double> fields;
  friend bool operator==(const Digest&, const Digest&) = default;
};

Digest digest_of(const sim::SimulationResult& r) {
  return {{static_cast<double>(r.submitted), static_cast<double>(r.completed),
           static_cast<double>(r.intrinsic_failed),
           static_cast<double>(r.dropped_unschedulable),
           static_cast<double>(r.dropped_attempt_cap),
           static_cast<double>(r.attempts),
           static_cast<double>(r.resource_failures),
           static_cast<double>(r.lowered_starts), r.makespan, r.utilization,
           r.wasted_fraction, r.mean_wait, r.mean_bounded_slowdown,
           r.granted_mib_nodes, r.used_mib_nodes}};
}

/// Engine accounting: every submitted job ends exactly one way, and every
/// attempt ends in success, a resource kill, or an intrinsic failure.
void check_identities(const sim::SimulationResult& r, std::size_t jobs,
                      Report& report) {
  if (r.submitted != jobs) {
    report.fail("submitted " + std::to_string(r.submitted) + " != trace " +
                std::to_string(jobs));
  }
  if (r.completed + r.intrinsic_failed + r.dropped_unschedulable +
          r.dropped_attempt_cap !=
      r.submitted) {
    report.fail("job accounting identity violated");
  }
  if (r.completed + r.intrinsic_failed + r.resource_failures != r.attempts) {
    report.fail("attempt accounting identity violated");
  }
  if (!(r.utilization > 0.0 && r.utilization <= 1.0)) {
    report.fail("utilization outside (0, 1]");
  }
  if (!(r.overprovision_factor() >= 1.0)) {
    report.fail("granted below used on successful runs");
  }
}

/// CPUs for the replicas, from the top of the CPU set (the lowest CPU
/// usually takes most interrupts); empty when the set is unknown.
std::vector<int> replica_cpus() {
  std::vector<int> cpus = allowed_cpus();
  std::reverse(cpus.begin(), cpus.end());
  if (cpus.size() > kMaxReplicas) cpus.resize(kMaxReplicas);
  return cpus;
}

/// Pins the set-up (and a traced run) to the first replica's CPU.
void pin_sim_thread(const std::vector<int>& cpus, Report& report) {
  report.provenance["cpu_set"] = std::to_string(allowed_cpus().size()) + " cpus";
  if (!cpus.empty() && pin_current_thread(cpus.front())) {
    std::string pins;
    for (const int c : cpus) {
      if (!pins.empty()) pins += ',';
      pins += std::to_string(c);
    }
    report.provenance["pinning"] =
        "set-up and traced run on cpu " + std::to_string(cpus.front()) +
        "; one simulation replica per cpu " + pins;
  } else {
    report.provenance["pinning"] = "none";
  }
}

/// Runs `rep` until the next run would overrun the budget, at least
/// kMinReps times.
template <typename Rep>
void repeat_for(double budget_s, Rep&& rep) {
  const auto t0 = Clock::now();
  for (std::size_t n = 1;; ++n) {
    rep();
    const double used = seconds_between(t0, Clock::now());
    if (n >= kMinReps && used + used / static_cast<double>(n) > budget_s) break;
  }
}

// --- one repetition ----------------------------------------------------------

struct SimRun {
  sim::SimulationResult result;
  double wall_s = 0.0;
  std::vector<double> windows;
};

/// Decorators of one repetition; the engine sees them only when traced.
struct Layers {
  TimedStream* stream = nullptr;
  TimedEstimator* estimator = nullptr;
  WindowedPolicy* policy = nullptr;
};

/// Per-layer metrics of a traced repetition: each decorated child's time,
/// and the engine's own time as the call's wall time minus theirs.
void put_layers(const SimRun& run, const Layers& l, Report& layers) {
  auto& m = layers.metrics;
  const auto& r = run.result;
  double child = l.policy->pick_s;
  if (l.stream != nullptr) child += l.stream->next_s;
  if (l.estimator != nullptr) {
    child += l.estimator->estimate_s + l.estimator->preview_s +
             l.estimator->feedback_s;
  }
  const double events =
      static_cast<double>(r.submitted) + static_cast<double>(r.attempts);
  m["sim.self_s"] = run.wall_s - child;
  m["sim.events"] = events;
  m["sim.self_ns_per_event"] = (run.wall_s - child) * 1e9 / events;
  m["sim.utilization"] = r.utilization;
  m["sim.bounded_slowdown"] = r.mean_bounded_slowdown;
  if (const TimedEstimator* e = l.estimator) {
    m["core.estimate_s"] = e->estimate_s;
    m["core.estimate_calls"] = static_cast<double>(e->estimate_calls);
    m["core.preview_s"] = e->preview_s;
    m["core.preview_calls"] = static_cast<double>(e->preview_calls);
    m["core.preview_epoch_calls"] = static_cast<double>(e->preview_epoch_calls);
    m["core.memo_hit_ratio"] = e->memo_hit_ratio();
    m["core.feedback_s"] = e->feedback_s;
    m["core.feedback_calls"] = static_cast<double>(e->feedback_calls);
  }
  if (const TimedStream* t = l.stream) {
    m["trace.next_s"] = t->next_s;
    m["trace.records"] = static_cast<double>(t->records);
  }
  m["sched.pick_s"] = l.policy->pick_s;
  m["sched.pick_calls"] = static_cast<double>(l.policy->pick_calls);
  m["sched.picks_per_start"] =
      r.attempts == 0 ? 0.0
                      : static_cast<double>(l.policy->pick_calls) /
                            static_cast<double>(r.attempts);
}

/// sim-cm5's repetition: simulate() over the stream, successive
/// approximation, implicit feedback, FCFS.
SimRun run_cm5_once(trace::JobStream& stream, const sim::ClusterSpec& spec,
                    std::uint64_t seed, bool traced, obs::Registry* registry,
                    Report* layers) {
  stream.reset();
  auto estimator = core::make_estimator("successive-approximation");
  auto fcfs = sched::make_policy("fcfs");
  sim::SimulationConfig cfg;
  cfg.seed = mix_seed(seed, 2);
  cfg.explicit_feedback = false;  // the paper's implicit feedback
  cfg.metrics = registry;

  TimedStream timed_stream(stream);
  TimedEstimator timed_estimator(*estimator);
  WindowedPolicy policy(*fcfs, traced);
  trace::JobStream& s = traced ? static_cast<trace::JobStream&>(timed_stream)
                               : stream;
  core::Estimator& e = traced ? static_cast<core::Estimator&>(timed_estimator)
                              : *estimator;

  SimRun run;
  const auto t0 = Clock::now();
  run.result = sim::simulate(s, spec, e, policy, cfg);
  run.wall_s = seconds_between(t0, Clock::now());
  run.windows = std::move(policy.window_us_per_start);
  if (layers != nullptr) {
    put_layers(run, {&timed_stream, &timed_estimator, &policy}, *layers);
  }
  return run;
}

/// sim-mr's repetition: simulate_mr() with dims = 1, the quantile
/// estimator behind a VectorEstimator, explicit feedback, FCFS. The
/// VectorEstimator builds its own scalar estimator, so core and ml time
/// stay inside sim.self_s.
SimRun run_mr_once(const trace::ScenarioWorkload& scenario,
                   const sim::ClusterSpec& spec, std::uint64_t seed,
                   bool traced, obs::Registry* registry, Report* layers) {
  core::VectorEstimatorConfig ecfg;
  ecfg.dims = 1;
  ecfg.estimator = "quantile";
  ecfg.options.quantile_tau = kMrTau;
  core::VectorEstimator estimator(ecfg);
  auto fcfs = sched::make_policy("fcfs");
  sim::MrSimulationConfig cfg;
  cfg.dims = 1;
  cfg.base.seed = mix_seed(seed, 3);
  cfg.base.explicit_feedback = true;  // the quantile model learns from usage
  cfg.base.metrics = registry;

  WindowedPolicy policy(*fcfs, traced);
  SimRun run;
  const auto t0 = Clock::now();
  run.result = sim::simulate_mr(scenario, spec, estimator, policy, cfg).base;
  run.wall_s = seconds_between(t0, Clock::now());
  run.windows = std::move(policy.window_us_per_start);
  if (layers != nullptr) put_layers(run, {nullptr, nullptr, &policy}, *layers);
  return run;
}

// --- the measured run ----------------------------------------------------------

/// One replica's set-up, repeated by the set-up rule: (replica, the
/// set-up times so far). Replicas set up concurrently, each its own input.
using Setup = std::function<void(std::size_t, std::vector<double>&)>;
/// One repetition: (replica, traced, registry, layers) -> result. Replicas
/// run concurrently and share nothing mutable.
using Once = std::function<SimRun(std::size_t, bool, obs::Registry*, Report*)>;

/// What one replica thread of the untraced run measured.
struct Replica {
  Report checks;  ///< failed checks and failed operations only
  std::vector<double> setups;
  Digest first;
  std::uint64_t attempted = 0;
  std::vector<double> rates;                 ///< jobs per second, per repetition
  std::vector<std::vector<double>> windows;  ///< latency windows, per repetition
  sim::SimulationResult last;
};

/// Untraced: every replica sets up, then repeats whole simulations for
/// --seconds after a warm-up repetition; setup_s is the median over all
/// replicas' set-ups. Traced: replica 0 alone sets up and runs an untraced
/// repetition, one with the obs registry attached, and one with every
/// decorator; all three must decide alike.
Report measure_sim(const Options& opt, std::size_t jobs,
                   const std::vector<int>& cpus, const Setup& setup,
                   const Once& once, Report report) {
  const auto checked = [&](bool traced, obs::Registry* registry,
                           Report* layers) {
    SimRun run = once(0, traced, registry, layers);
    check_identities(run.result, jobs, report);
    return run;
  };

  if (opt.trace) {
    std::vector<double> setups;
    setup(0, setups);
    const SimRun plain = checked(false, nullptr, nullptr);
    obs::Registry registry;
    const SimRun observed = checked(false, &registry, nullptr);
    const SimRun traced = checked(true, nullptr, &report);
    if (!(digest_of(plain.result) == digest_of(traced.result)) ||
        !(digest_of(plain.result) == digest_of(observed.result))) {
      report.fail("traced run decided differently from the untraced run");
    }
    report.attempted = 3 * plain.result.submitted;
    report.metrics["bench.trace_overhead"] = traced.wall_s / plain.wall_s - 1.0;
    report.metrics["bench.obs_overhead"] =
        observed.wall_s / plain.wall_s - 1.0;
    return report;
  }

  const std::size_t n = std::max<std::size_t>(1, cpus.size());
  std::vector<Replica> replicas(n);
  // Peak memory is read once every replica has set up and run its first
  // simulation: later repetitions need no more, but the allocator's
  // fragmentation creeps up with their count, which follows host speed.
  double rss_mib = 0.0;
  std::barrier warmed(static_cast<std::ptrdiff_t>(n),
                      [&]() noexcept { rss_mib = peak_rss_mib(); });
  const auto body = [&](std::size_t r) {
    Replica& me = replicas[r];
    bool arrived = false;
    try {
      if (r < cpus.size()) pin_current_thread(cpus[r]);
      setup(r, me.setups);
      const auto run = [&] {
        SimRun one = once(r, false, nullptr, nullptr);
        check_identities(one.result, jobs, me.checks);
        me.attempted += one.result.submitted;
        return one;
      };
      // The first repetition warms allocator pools and caches and fixes
      // the digest every later repetition must reproduce.
      me.last = run().result;
      me.first = digest_of(me.last);
      arrived = true;
      warmed.arrive_and_wait();
      repeat_for(opt.seconds, [&] {
        SimRun one = run();
        if (!(digest_of(one.result) == me.first)) {
          me.checks.fail("result digest differs between repetitions");
          me.checks.failed += one.result.submitted;
        }
        me.rates.push_back(static_cast<double>(one.result.submitted) /
                           one.wall_s);
        me.windows.push_back(std::move(one.windows));
        me.last = one.result;
      });
    } catch (const std::exception& e) {
      me.checks.fail(std::string("replica failed: ") + e.what());
      if (!arrived) warmed.arrive_and_drop();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < n; ++r) threads.emplace_back(body, r);
  for (auto& t : threads) t.join();

  std::vector<double> setups;
  std::vector<double> rates;
  for (const Replica& me : replicas) {
    for (const auto& p : me.checks.problems) report.fail(p);
    report.failed += me.checks.failed;
    report.attempted += me.attempted;
    // Replicas simulate identical inputs and must decide alike.
    if (!(me.first == replicas.front().first)) {
      report.fail("replicas decided differently");
    }
    setups.insert(setups.end(), me.setups.begin(), me.setups.end());
    rates.insert(rates.end(), me.rates.begin(), me.rates.end());
  }
  const sim::SimulationResult& last = replicas.front().last;
  report.metrics["ops_per_s"] = percentile(rates, kFastPercentile);
  const double fast_rate = percentile(rates, kFastRepsPercentile);
  std::vector<double> windows;
  for (const Replica& me : replicas) {
    for (std::size_t i = 0; i < me.rates.size(); ++i) {
      if (me.rates[i] < fast_rate) continue;
      windows.insert(windows.end(), me.windows[i].begin(), me.windows[i].end());
    }
  }
  report.metrics["latency_p50_us"] = percentile(windows, 50.0);
  report.metrics["latency_p99_us"] = percentile(windows, 99.0);
  report.provenance["latency_windows"] = std::to_string(windows.size());
  report.provenance["ops_per_s_quartiles"] = quartile_text(rates);
  report.provenance["replicas"] = std::to_string(n);
  report.provenance["repetitions"] = std::to_string(rates.size());
  report.provenance["setup_repeats"] = std::to_string(setups.size());
  report.metrics["peak_rss_mib"] = rss_mib;
  report.metrics["setup_s"] = median(setups);
  report.metrics["kill_rate"] = last.resource_failure_fraction();
  report.metrics["overprovision"] = last.overprovision_factor();
  return report;
}

trace::Cm5ModelConfig cm5_model(std::uint64_t seed, std::size_t jobs) {
  trace::Cm5ModelConfig cfg;
  cfg.seed = seed;
  cfg.job_count = jobs;
  cfg.group_count = jobs / 12;
  cfg.user_count = jobs / 600;
  cfg.nominal_machines = kMachines;
  cfg.nominal_load = 0.5;
  return cfg;
}

sim::ClusterSpec cluster() {
  const std::size_t per_pool = kMachines / 4;
  return {{32.0, per_pool}, {24.0, per_pool}, {16.0, per_pool},
          {8.0, per_pool}};
}

}  // namespace

bool sim_decorators_transparent() {
  // A small paper-scale trace: plain and fully decorated runs must agree,
  // on both engines.
  trace::Cm5ModelConfig cfg = trace::cm5_small_config(5, 3000);
  trace::Cm5JobStream stream(cfg);
  const trace::ScenarioWorkload scenario =
      trace::scenario_from(trace::generate_cm5(cfg));
  const sim::ClusterSpec spec = sim::cm5_heterogeneous(24.0, 128);
  Report layers;
  Report mr_layers;
  const auto plain = run_cm5_once(stream, spec, 5, false, nullptr, nullptr);
  const auto traced = run_cm5_once(stream, spec, 5, true, nullptr, &layers);
  const auto mr_plain = run_mr_once(scenario, spec, 5, false, nullptr, nullptr);
  const auto mr_traced =
      run_mr_once(scenario, spec, 5, true, nullptr, &mr_layers);
  return digest_of(plain.result) == digest_of(traced.result) &&
         layers.metrics["core.estimate_calls"] ==
             static_cast<double>(plain.result.attempts) &&
         digest_of(mr_plain.result) == digest_of(mr_traced.result);
}

Report run_sim_cm5(const Options& opt) {
  Report report;
  const std::vector<int> cpus = replica_cpus();
  pin_sim_thread(cpus, report);
  const sim::ClusterSpec spec = cluster();
  // Set-up: the stream's plan pass (group population plus a dry run of
  // emission); the cluster itself is built inside simulate(). Every
  // replica reads its own stream.
  std::vector<std::unique_ptr<trace::Cm5JobStream>> streams(
      std::max<std::size_t>(1, cpus.size()));
  return measure_sim(
      opt, kCm5Jobs, cpus,
      [&](std::size_t replica, std::vector<double>& setups) {
        streams[replica] = repeat_setup(setups, [&] {
          return std::make_unique<trace::Cm5JobStream>(
              cm5_model(mix_seed(opt.seed, 1), kCm5Jobs));
        });
      },
      [&](std::size_t replica, bool traced, obs::Registry* registry,
          Report* layers) {
        return run_cm5_once(*streams[replica], spec, opt.seed, traced,
                            registry, layers);
      },
      std::move(report));
}

Report run_sim_mr(const Options& opt) {
  Report report;
  const std::vector<int> cpus = replica_cpus();
  pin_sim_thread(cpus, report);
  const sim::ClusterSpec spec = cluster();
  // Set-up: generating the whole trace and its flat multi-resource view.
  // Every replica simulates its own copy.
  std::vector<std::unique_ptr<trace::ScenarioWorkload>> scenarios(
      std::max<std::size_t>(1, cpus.size()));
  return measure_sim(
      opt, kMrJobs, cpus,
      [&](std::size_t replica, std::vector<double>& setups) {
        scenarios[replica] = repeat_setup(setups, [&] {
          return std::make_unique<trace::ScenarioWorkload>(trace::scenario_from(
              trace::generate_cm5(cm5_model(mix_seed(opt.seed, 4), kMrJobs))));
        });
      },
      [&](std::size_t replica, bool traced, obs::Registry* registry,
          Report* layers) {
        return run_mr_once(*scenarios[replica], spec, opt.seed, traced,
                           registry, layers);
      },
      std::move(report));
}

}  // namespace perfbench
