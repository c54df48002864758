// serve-read and serve-write: matchd behind net::Server over a Unix
// socket, driven by one pinned client thread with a pipelined window on
// each of two connections.
//
// Determinism: the client never has two requests of one similarity group
// in flight and keeps each group on one connection, so every group sees
// its operations in trace order no matter how the two connections
// interleave. Every reply therefore has one correct value, computed in
// process before the run (previews, match rows) or by an offline
// SuccessiveApproximationEstimator replay (grants), and every reply is
// checked against it.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "common.hpp"
#include "core/capacity_ladder.hpp"
#include "core/similarity.hpp"
#include "core/successive_approximation.hpp"
#include "match/classad.hpp"
#include "match/compiled.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "svc/matchd.hpp"
#include "trace/cm5_model.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace resmatch;

// Sizes and rates fixed by the benchmark (NOTES.md, "Workloads").
constexpr std::size_t kConnections = 2;
/// Requests in flight per connection; below ServerConfig::max_pipeline
/// (64), so the server never stops reading a socket.
constexpr std::size_t kWindow = 48;
constexpr std::size_t kMachines = 1024;
constexpr std::size_t kRequestAds = 512;
/// One Match per this many operations on serve-read, on average.
constexpr std::uint64_t kMatchEvery = 16;
/// Jobs replayed into the store during serve-read set-up, and jobs after
/// them that previews draw from.
constexpr std::size_t kWarmJobs = 300000;
constexpr std::size_t kPreviewJobs = 200000;
/// serve-read's operation list; stateless, so the client cycles through it.
constexpr std::size_t kReadOps = 200000;
/// serve-write's job list, sent over and over; the groups carry their
/// state from one pass into the next. The offline replay is made before
/// the run for kWritePassesPerS passes per second of --seconds (about
/// twice what a run here completes) and is extended pass by pass if a
/// run gets further.
constexpr std::size_t kWriteJobs = 300000;
constexpr double kWritePassesPerS = 0.6;
/// A phase that has not drained this long after it stopped admitting
/// work has lost replies.
constexpr double kDrainLimitS = 5.0;
constexpr std::uint32_t kMaxAttempts = 64;
/// Open-loop arrival rates (operations or jobs per second), well below
/// the closed-loop medians measured on a 4-core x86 box (NOTES.md).
constexpr double kReadRate = 20000.0;
constexpr double kWriteRate = 15000.0;
/// Share of the run given to each phase; the rest is set-up and drain.
constexpr double kClosedShare = 0.45;
constexpr double kOpenShare = 0.45;
constexpr double kWarmupS = 0.5;
/// Share of the run each closed-loop phase of a traced run gets.
constexpr double kTracedShare = 0.3;
/// Closed-loop throughput is the kFastPercentile of windows of this length
/// (short enough that ten or more lie beyond it), and open-loop latency
/// percentiles the median over windows of kLatencyWindowS (so one host
/// stall sets neither figure; NOTES.md "Noise").
constexpr double kRateWindowS = 0.1;
constexpr double kLatencyWindowS = 0.5;

core::CapacityLadder ladder() {
  return core::CapacityLadder({8.0, 16.0, 24.0, 32.0});
}

trace::Workload cm5_jobs(std::uint64_t seed, std::size_t jobs) {
  trace::Cm5ModelConfig cfg;
  cfg.seed = seed;
  cfg.job_count = jobs;
  cfg.group_count = std::max<std::size_t>(64, jobs / 12);
  cfg.user_count = std::max<std::size_t>(8, jobs / 600);
  return trace::generate_cm5(cfg);
}

// --- CPU placement -----------------------------------------------------------

/// Disjoint CPUs from this process's set for the client thread, the server
/// loop and the matchd worker (shared round-robin when there are fewer).
struct Placement {
  std::vector<int> cpus;
  int client = -1;
  int server = -1;
  int worker = -1;

  static Placement choose() {
    Placement p;
    p.cpus = allowed_cpus();
    // From the top of the set down: the lowest-numbered CPU usually takes
    // most device interrupts.
    return p.rotated(0);
  }
  /// The same roles moved `k` (< 4) CPUs further down the set, wrapping
  /// around.
  [[nodiscard]] Placement rotated(std::size_t k) const {
    Placement p = *this;
    if (cpus.empty()) return p;
    const std::size_t n = cpus.size();
    const auto below_top = [&](std::size_t i) { return cpus[(8 * n - i - k) % n]; };
    p.client = below_top(1);
    p.server = below_top(2);
    p.worker = below_top(3);
    return p;
  }
  [[nodiscard]] std::string describe() const {
    if (cpus.empty()) return "none";
    return "client cpu " + std::to_string(client) + ", server loop cpu " +
           std::to_string(server) + ", matchd worker cpu " +
           std::to_string(worker);
  }
};

// --- the service under test --------------------------------------------------

/// One matchd + net::Server instance. Threads inherit the creating
/// thread's CPU mask, so the worker and the loop are pinned by pinning
/// this thread around their creation.
struct Service {
  std::unique_ptr<svc::Matchd> matchd;
  std::unique_ptr<net::Server> server;
  std::string socket_path;
  std::string wal_dir;

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() {
    if (server) server->stop();
    server.reset();
    matchd.reset();
    std::error_code ec;
    if (!socket_path.empty()) std::filesystem::remove(socket_path, ec);
    if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir, ec);
  }
};

std::string unique_path(const Options& opt, const std::string& stem) {
  static int counter = 0;
  return opt.work_dir + "/" + stem + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++);
}

/// Build matchd (its worker pinned), run `prepare` on it (store warm-up),
/// then bind and start the server (its loop pinned).
template <typename Prepare>
std::unique_ptr<Service> start_service(const Options& opt,
                                       svc::MatchdConfig cfg,
                                       const Placement& place,
                                       const std::vector<match::ClassAd>* ads,
                                       obs::Registry* registry,
                                       Prepare&& prepare) {
  auto s = std::make_unique<Service>();
  cfg.metrics = registry;
  if (!cfg.durability.wal_dir.empty()) s->wal_dir = cfg.durability.wal_dir;
  if (place.worker >= 0) pin_current_thread(place.worker);
  s->matchd = std::make_unique<svc::Matchd>(cfg);
  s->matchd->set_ladder(ladder());
  if (place.server >= 0) pin_current_thread(place.server);
  prepare(*s->matchd);
  net::ServerConfig sc;
  s->socket_path = unique_path(opt, "sock");
  sc.uds_path = s->socket_path;
  sc.machines = ads;
  sc.metrics = registry;
  s->server = std::make_unique<net::Server>(*s->matchd, sc);
  const bool started = s->server->start();
  if (place.client >= 0) pin_current_thread(place.client);
  if (!started) throw std::runtime_error("server failed to start");
  return s;
}

// --- pipelined client ----------------------------------------------------------

/// One unit of client work: a serve-read operation (one preview or one
/// Match) or a serve-write job (estimate/feedback until it succeeds).
struct Task {
  std::uint32_t item = 0;  ///< job index, or request-ad index for a Match
  bool is_match = false;
  std::uint64_t group = 0;
  // serve-write chain progress
  std::uint32_t pass = 0;
  std::uint32_t attempt = 0;
  MiB granted = 0.0;
  bool awaiting_feedback = false;
  bool done = false;
};

struct Expectations {
  const std::vector<trace::JobRecord>* jobs = nullptr;
  // serve-read
  const std::vector<MiB>* preview = nullptr;
  const std::vector<net::MatchReq>* ads = nullptr;
  const std::vector<std::vector<std::uint32_t>>* rows = nullptr;
  // serve-write: grants per attempt, from the offline replay
  struct GrantTable* grants = nullptr;
};

/// The reference for serve-write: Algorithm 1 run offline over the same
/// per-group job sequences, pass after pass, resubmitting a job while its
/// grant is below its usage. Attempt a of job j in pass p was granted
/// values[first[p * jobs + j] + a].
struct GrantTable {
  explicit GrantTable(const std::vector<trace::JobRecord>& trace)
      : jobs(&trace) {
    sa.set_ladder(ladder());
  }

  /// Replay passes until `pass` is covered; the estimator's state carries
  /// from one pass into the next, as the service's does.
  void cover(std::uint32_t pass) {
    for (; passes <= pass; ++passes) {
      for (const auto& job : *jobs) {
        first.push_back(static_cast<std::uint32_t>(values.size()));
        for (std::uint32_t a = 0; a < kMaxAttempts; ++a) {
          const MiB g = sa.estimate(job, core::SystemState{});
          values.push_back(g);
          core::Feedback fb;
          fb.success = g >= job.used_mem_mib;
          fb.granted_mib = g;
          sa.feedback(job, fb);
          if (fb.success) break;
        }
      }
    }
  }
  [[nodiscard]] std::size_t begin(std::uint32_t pass, std::uint32_t job) const {
    return first[pass * jobs->size() + job];
  }
  [[nodiscard]] std::size_t count(std::uint32_t pass, std::uint32_t job) const {
    const std::size_t i = pass * jobs->size() + job;
    return (i + 1 < first.size() ? first[i + 1] : values.size()) - first[i];
  }

  const std::vector<trace::JobRecord>* jobs;
  core::SuccessiveApproximationEstimator sa;
  std::uint32_t passes = 0;
  std::vector<std::uint32_t> first;
  std::vector<MiB> values;
};

struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<double> window_replies;  ///< closed loop, per kRateWindowS
  double measured_start = 0.0;
  std::vector<OpenLoopSample> samples;  ///< open loop only
  // Traced phases only:
  std::vector<std::uint32_t> match_ads;  ///< Match ops sent, by ad
  /// Previews sent, or write jobs started as (pass << 32 | job).
  std::vector<std::uint64_t> jobs_touched;
};

/// Replies per second in each of the closed loop's rate windows.
std::vector<double> window_rates(const PhaseResult& r) {
  std::vector<double> rates;
  for (const double n : r.window_replies) rates.push_back(n / kRateWindowS);
  return rates;
}

/// serve-read's closed loop runs in this many segments, taking turns over
/// up to kReadPlacements placements of its threads (NOTES.md, "Host speed
/// states"); each segment's first kSegmentWarmupS are not measured.
constexpr std::size_t kReadSegments = 8;
constexpr std::size_t kReadPlacements = 4;
constexpr double kSegmentWarmupS = 0.1;

/// Replies per second: the fast end of the closed loop's rate windows.
double closed_rate_of(const PhaseResult& r) {
  return percentile(window_rates(r), kFastPercentile);
}

class PipelinedClient {
 public:
  PipelinedClient(const std::string& socket_path, std::vector<Task>& tasks,
                  Expectations expect, bool write_mode, Report& report)
      : tasks_(&tasks), expect_(expect), write_(write_mode),
        report_(&report), t0_(Clock::now()) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      conns_.emplace_back();
      connect(conns_.back(), socket_path);
    }
    for (std::uint32_t i = 0; i < tasks.size(); ++i) {
      conns_[tasks[i].group % kConnections].tasks.push_back(i);
    }
  }
  ~PipelinedClient() {
    for (auto& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  PipelinedClient(const PipelinedClient&) = delete;
  PipelinedClient& operator=(const PipelinedClient&) = delete;

  /// Closed loop when rate == 0 (each connection keeps its window full),
  /// otherwise open loop at `rate` tasks per second split evenly over the
  /// connections. Replies before `warmup` seconds are not measured. The
  /// phase stops admitting work after `duration`, then drains.
  PhaseResult run_phase(double duration, double warmup, double rate,
                        bool trace_codec);

  double encode_s = 0.0;
  double decode_s = 0.0;

 private:
  struct Pending {
    std::uint32_t task = 0;
    double due = 0.0;
    double sent = 0.0;
  };
  struct Ready {
    std::uint32_t task = 0;
    double due = 0.0;
  };
  struct Conn {
    int fd = -1;
    net::Decoder decoder;
    std::vector<char> out;
    std::size_t out_off = 0;
    std::vector<std::uint32_t> tasks;  ///< this connection's tasks, in order
    std::size_t cursor = 0;
    std::uint32_t pass = 0;  ///< completed trips through `tasks`
    std::deque<Ready> ready;
    std::unordered_map<std::uint64_t, Pending> pending;
    std::uint64_t next_id = 1;
  };

  [[nodiscard]] double now() const { return seconds_between(t0_, Clock::now()); }
  /// Next task of the connection's list, wrapping around; a write job
  /// taken again starts a fresh chain in its next pass.
  std::uint32_t take(Conn& c);
  void connect(Conn& c, const std::string& path);
  void admit(Conn& c, std::uint32_t task, double due);
  void finish_task(Conn& c, std::uint32_t task);
  void send(Conn& c, const Ready& r);
  void flush(Conn& c);
  void read_replies(Conn& c, PhaseResult& out);
  void on_reply(Conn& c, net::Envelope&& env, PhaseResult& out);
  void fail(const std::string& why) { report_->fail(why); }

  std::vector<Task>* tasks_;
  Expectations expect_;
  bool write_;
  Report* report_;
  Clock::time_point t0_;
  std::deque<Conn> conns_;
  std::unordered_map<std::uint64_t, std::deque<Ready>> waiting_;  ///< busy groups
  std::size_t waiting_count_ = 0;
  bool trace_codec_ = false;
  // phase state
  bool open_ = false;
  double window_start_ = 0.0;
  double window_end_ = 0.0;
};

void PipelinedClient::connect(Conn& c, const std::string& path) {
  c.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (c.fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw std::runtime_error("connect(" + path + ") failed: " +
                             std::strerror(errno));
  }
  net::encode_magic(c.out);
}

std::uint32_t PipelinedClient::take(Conn& c) {
  const std::uint32_t i = c.tasks[c.cursor];
  Task& t = (*tasks_)[i];
  if (write_ && c.pass > 0) {
    if (!t.done) fail("job list wrapped onto a job still in flight");
    t = Task{t.item, t.is_match, t.group};
    t.pass = c.pass;
  }
  if (++c.cursor == c.tasks.size()) {
    c.cursor = 0;
    ++c.pass;
  }
  return i;
}

void PipelinedClient::admit(Conn& c, std::uint32_t task, double due) {
  const std::uint64_t g = (*tasks_)[task].group;
  auto it = waiting_.find(g);
  if (it != waiting_.end()) {
    // The group has a task in flight: this one waits its turn (and, in
    // the open loop, keeps its due time, so the wait counts as latency).
    it->second.push_back({task, due});
    ++waiting_count_;
    return;
  }
  waiting_.emplace(g, std::deque<Ready>{});
  c.ready.push_back({task, due});
}

void PipelinedClient::finish_task(Conn& c, std::uint32_t task) {
  Task& t = (*tasks_)[task];
  t.done = true;
  auto it = waiting_.find(t.group);
  if (it->second.empty()) {
    waiting_.erase(it);
    return;
  }
  Ready next = it->second.front();
  it->second.pop_front();
  --waiting_count_;
  next.due = std::max(next.due, now());
  c.ready.push_back(next);
}

void PipelinedClient::send(Conn& c, const Ready& r) {
  Task& t = (*tasks_)[r.task];
  const std::uint64_t id = c.next_id++;
  const auto e0 = trace_codec_ ? Clock::now() : Clock::time_point{};
  const trace::JobRecord* job =
      t.is_match ? nullptr : &(*expect_.jobs)[t.item];
  if (t.is_match) {
    net::encode(c.out, id, (*expect_.ads)[t.item]);
  } else if (!write_) {
    net::encode(c.out, id, net::PreviewReq{*job});
  } else if (t.awaiting_feedback) {
    core::Feedback fb;
    fb.success = t.granted >= job->used_mem_mib;
    fb.granted_mib = t.granted;
    net::encode(c.out, id, net::FeedbackReq{*job, fb});
  } else {
    net::encode(c.out, id, net::EstimateReq{*job});
  }
  if (trace_codec_) encode_s += seconds_between(e0, Clock::now());
  c.pending.emplace(id, Pending{r.task, r.due, now()});
}

void PipelinedClient::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error("send failed: " + std::string(std::strerror(errno)));
  }
  c.out.clear();
  c.out_off = 0;
}

void PipelinedClient::read_replies(Conn& c, PhaseResult& out) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n == 0) throw std::runtime_error("server closed the connection");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      throw std::runtime_error("recv failed: " + std::string(std::strerror(errno)));
    }
    const auto d0 = trace_codec_ ? Clock::now() : Clock::time_point{};
    c.decoder.feed(buf, static_cast<std::size_t>(n));
    std::vector<net::Envelope> got;
    while (true) {
      auto next = c.decoder.next();
      if (!next.has_value()) {
        throw std::runtime_error("protocol error from server: " + next.error());
      }
      if (!next.value().has_value()) break;
      got.push_back(std::move(*next.value()));
    }
    if (trace_codec_) decode_s += seconds_between(d0, Clock::now());
    for (auto& env : got) on_reply(c, std::move(env), out);
    if (static_cast<std::size_t>(n) < sizeof buf) break;
  }
}

void PipelinedClient::on_reply(Conn& c, net::Envelope&& env, PhaseResult& out) {
  const auto it = c.pending.find(env.request_id);
  if (it == c.pending.end()) {
    fail("reply for an unknown request id");
    return;
  }
  const Pending p = it->second;
  c.pending.erase(it);
  const double done = now();
  Task& t = (*tasks_)[p.task];
  bool ok = true;
  bool task_finished = true;

  if (const auto* err = std::get_if<net::ErrorResp>(&env.body)) {
    ok = false;
    fail("error reply: " + err->message);
  } else if (t.is_match) {
    const auto* resp = std::get_if<net::MatchResp>(&env.body);
    ok = resp != nullptr && resp->rows == (*expect_.rows)[t.item];
    if (!ok) fail("Match rows differ from local rank_matches_compiled");
  } else if (!write_) {
    const auto* resp = std::get_if<net::PreviewResp>(&env.body);
    ok = resp != nullptr && resp->granted_mib == (*expect_.preview)[t.item];
    if (!ok) fail("preview differs from in-process Matchd::preview");
  } else if (!t.awaiting_feedback) {
    const auto* resp = std::get_if<net::EstimateResp>(&env.body);
    GrantTable& want = *expect_.grants;
    want.cover(t.pass);
    ok = resp != nullptr && t.attempt < want.count(t.pass, t.item) &&
         resp->granted_mib ==
             want.values[want.begin(t.pass, t.item) + t.attempt];
    if (!ok) {
      fail("grant differs from the offline successive-approximation replay");
    } else {
      t.granted = resp->granted_mib;
      t.awaiting_feedback = true;
      task_finished = false;
    }
  } else {
    const auto* resp = std::get_if<net::Ack>(&env.body);
    ok = resp != nullptr && resp->ok;
    if (!ok) fail("feedback not acknowledged");
    const bool success = t.granted >= (*expect_.jobs)[t.item].used_mem_mib;
    t.awaiting_feedback = false;
    ++t.attempt;
    if (ok && !success && t.attempt < kMaxAttempts) task_finished = false;
  }

  ++out.sent;
  if (!ok) ++out.failed;
  if (open_ && p.due >= window_start_) {
    out.samples.push_back({p.due, p.sent, done, ok});
  } else if (!open_ && done >= window_start_ && done < window_end_) {
    const auto w = static_cast<std::size_t>((done - window_start_) / kRateWindowS);
    if (w < out.window_replies.size()) out.window_replies[w] += 1;
  }
  if (!ok || task_finished) {
    finish_task(c, p.task);
  } else {
    // The chain's next request is due the moment this reply arrived.
    c.ready.push_front({p.task, done});
  }
}

PhaseResult PipelinedClient::run_phase(double duration, double warmup, double rate,
                              bool trace_codec) {
  PhaseResult out;
  trace_codec_ = trace_codec;
  open_ = rate > 0.0;
  const double start = now();
  window_start_ = start + warmup;
  window_end_ = start + duration;
  out.measured_start = window_start_;
  out.window_replies.assign(
      static_cast<std::size_t>(std::max(0.0, duration - warmup) / kRateWindowS),
      0.0);
  const double per_conn_rate = rate / static_cast<double>(kConnections);
  std::vector<std::size_t> released(conns_.size(), 0);

  std::vector<pollfd> fds(conns_.size());
  while (true) {
    const double t = now();
    const bool admitting = t < window_end_;
    bool idle = waiting_count_ == 0;
    double next_due = window_end_;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (admitting) {
        if (open_) {
          while (!c.tasks.empty()) {
            // Connection i is offset by i/kConnections of a period, so
            // the two streams interleave instead of arriving in pairs.
            const double due =
                start + (static_cast<double>(released[i]) +
                         static_cast<double>(i) / kConnections) /
                            per_conn_rate;
            if (due > t) {
              next_due = std::min(next_due, due);
              break;
            }
            ++released[i];
            admit(c, take(c), due);
          }
        } else {
          while (c.ready.size() + c.pending.size() < kWindow &&
                 waiting_count_ < 4 * kWindow && !c.tasks.empty()) {
            admit(c, take(c), t);
          }
        }
      }
      while (c.pending.size() < kWindow && !c.ready.empty()) {
        const Ready r = c.ready.front();
        c.ready.pop_front();
        const Task& task = (*tasks_)[r.task];
        // Only traced phases keep the operation log (the direct replays
        // need it); untraced runs must not grow with their own speed.
        if (trace_codec_ && task.is_match) {
          out.match_ads.push_back(task.item);
        } else if (trace_codec_ && !task.awaiting_feedback &&
                   task.attempt == 0) {
          out.jobs_touched.push_back(
              static_cast<std::uint64_t>(task.pass) << 32 | task.item);
        }
        send(c, r);
      }
      flush(c);
      if (!c.pending.empty() || !c.ready.empty()) idle = false;
      fds[i] = {c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                0};
    }
    if (!admitting && idle) break;
    if (!admitting && now() > window_end_ + kDrainLimitS) {
      fail("replies still missing " + std::to_string(kDrainLimitS) +
           " s after the phase ended");
      out.failed += waiting_count_;
      for (const auto& c : conns_) out.failed += c.pending.size() + c.ready.size();
      break;
    }
    // Sleep until a reply arrives or, in the open loop, the next request
    // falls due — with nanosecond resolution, so the generator is not late
    // by a millisecond tick. The closed loop busy-polls (zero timeout) so
    // the client's own wake-up latency never throttles the window.
    timespec ts{};
    if (open_ || !admitting) {
      const double until =
          admitting ? next_due : window_end_ + kDrainLimitS;
      const double wait = std::max(0.0, until - now());
      ts.tv_sec = static_cast<time_t>(wait);
      ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
    }
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed: " + std::string(std::strerror(errno)));
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents & (POLLERR | POLLHUP)) {
        throw std::runtime_error("connection to the server broke");
      }
      if (fds[i].revents & POLLIN) read_replies(conns_[i], out);
    }
  }
  return out;
}

// --- serve-read ---------------------------------------------------------------

struct ReadWorkload {
  trace::Workload trace;   ///< warm-up jobs first, then previewed jobs
  std::vector<match::ClassAd> machines;
  std::vector<net::MatchReq> ads;
  std::vector<match::ClassAd> ad_objects;
  std::vector<Task> tasks;
  std::vector<MiB> expected_preview;  ///< per job index
  std::vector<std::vector<std::uint32_t>> expected_rows;  ///< per ad
};

std::vector<match::ClassAd> make_machines(std::uint64_t seed) {
  util::Rng rng(seed);
  const double mem[] = {8, 16, 24, 32};
  const double cpus[] = {2, 4, 8, 16, 32};
  std::vector<match::ClassAd> machines(kMachines);
  for (auto& m : machines) {
    m.set("memory", mem[rng() % 4]);
    m.set("cpus", cpus[rng() % 5]);
    m.set("gpus", static_cast<double>(rng() % 4 == 0 ? 1 + rng() % 4 : 0));
    m.set("disk", static_cast<double>(50 + rng() % 950));
    m.set("arch", std::string(rng() % 8 == 0 ? "aarch64" : "x86_64"));
  }
  return machines;
}

/// Request ads whose requirements compare machine attributes with
/// literals — the shape the compiled matcher's prefilter lowers.
std::vector<net::MatchReq> make_ads(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<net::MatchReq> ads(kRequestAds);
  for (auto& ad : ads) {
    const int mem = 8 * static_cast<int>(1 + rng() % 4);
    const int cpus = 1 << (rng() % 5);
    const int disk = 50 * static_cast<int>(1 + rng() % 10);
    std::string req = "other.memory >= " + std::to_string(mem) +
                      " && other.cpus >= " + std::to_string(cpus) +
                      " && other.disk >= " + std::to_string(disk);
    if (rng() % 4 == 0) req += " && other.gpus >= 1";
    ad.attrs = {{"requirements", req},
                {"rank", "other.memory * 100 + other.cpus - other.disk / 1000"}};
  }
  return ads;
}

void warm_store(svc::Matchd& matchd, const trace::Workload& trace,
                std::size_t jobs) {
  for (std::size_t i = 0; i < jobs; ++i) {
    const auto& job = trace.jobs[i];
    for (std::uint32_t a = 0; a < kMaxAttempts; ++a) {
      const svc::MatchDecision d = matchd.submit(job);
      core::Feedback fb;
      fb.success = d.granted_mib >= job.used_mem_mib;
      fb.granted_mib = d.granted_mib;
      matchd.feedback(job, fb);
      if (fb.success) break;
    }
  }
}

std::unique_ptr<ReadWorkload> build_read_workload(std::uint64_t seed) {
  auto w = std::make_unique<ReadWorkload>();
  w->trace = cm5_jobs(mix_seed(seed, 11), kWarmJobs + kPreviewJobs);
  w->machines = make_machines(mix_seed(seed, 12));
  w->ads = make_ads(mix_seed(seed, 13));
  w->ad_objects.resize(w->ads.size());
  for (std::size_t a = 0; a < w->ads.size(); ++a) {
    for (const auto& [name, src] : w->ads[a].attrs) {
      if (!w->ad_objects[a].set_expr(name, src)) {
        throw std::runtime_error("request ad does not parse: " + src);
      }
    }
  }
  util::Rng rng(mix_seed(seed, 14));
  const std::size_t previewable = w->trace.jobs.size() - kWarmJobs;
  w->tasks.resize(kReadOps);
  for (auto& t : w->tasks) {
    if (rng() % kMatchEvery == 0) {
      t.is_match = true;
      t.item = static_cast<std::uint32_t>(rng() % kRequestAds);
      t.group = ~static_cast<std::uint64_t>(t.item);
    } else {
      t.item = static_cast<std::uint32_t>(kWarmJobs + rng() % previewable);
      t.group = core::default_similarity_key(w->trace.jobs[t.item]);
    }
  }
  return w;
}

void reset_tasks(std::vector<Task>& tasks) {
  for (auto& t : tasks) t = Task{t.item, t.is_match, t.group};
}

svc::MatchdConfig read_config() {
  svc::MatchdConfig cfg;
  cfg.workers = 0;  // inline service on the server loop
  return cfg;
}

/// Set-up of serve-read: warm the store, bind the server, and build the
/// server's machine table (lazily built on the first Match).
std::unique_ptr<Service> start_read_service(const Options& opt,
                                            const ReadWorkload& w,
                                            const Placement& place,
                                            obs::Registry* registry) {
  auto s = start_service(opt, read_config(), place, &w.machines, registry,
                         [&](svc::Matchd& m) { warm_store(m, w.trace, kWarmJobs); });
  net::Client probe;
  if (!probe.connect_uds(s->socket_path).has_value() ||
      !probe.match(w.ads[0]).has_value()) {
    throw std::runtime_error("serve-read set-up probe failed");
  }
  return s;
}

// --- serve-write -----------------------------------------------------------------

struct WriteWorkload {
  trace::Workload trace;
  std::vector<Task> tasks;
  std::unique_ptr<GrantTable> grants;
};

std::unique_ptr<WriteWorkload> build_write_workload(std::uint64_t seed) {
  auto w = std::make_unique<WriteWorkload>();
  w->trace = cm5_jobs(mix_seed(seed, 21), kWriteJobs);
  w->tasks.resize(w->trace.jobs.size());
  for (std::uint32_t i = 0; i < w->tasks.size(); ++i) {
    w->tasks[i].item = i;
    w->tasks[i].group = core::default_similarity_key(w->trace.jobs[i]);
  }
  return w;
}

/// One batch worker draining the admission queue (default batch_max 32).
/// With `wal`, the default durability cadence: flush every record, fsync
/// every 64, and a forced write+fsync per batch (the batch commit point).
svc::MatchdConfig write_config(const Options& opt, bool wal) {
  svc::MatchdConfig cfg;
  cfg.workers = 1;
  if (wal) cfg.durability.wal_dir = unique_path(opt, "wal");
  return cfg;
}

void put_net_metrics(std::map<std::string, double>& m,
                     const net::ServerStats& st, double encode_s,
                     double decode_s) {
  m["net.encode_s"] = encode_s;
  m["net.decode_s"] = decode_s;
  m["net.bytes_per_request"] =
      st.requests == 0 ? 0.0
                       : static_cast<double>(st.bytes_read + st.bytes_written) /
                             static_cast<double>(st.requests);
  m["net.protocol_errors"] = static_cast<double>(st.protocol_errors);
  m["net.backpressure_rejects"] = static_cast<double>(st.backpressure_rejects);
}

// --- shared run shape ----------------------------------------------------------

void put_serve_provenance(Report& report, const Placement& place,
                          const Options& opt, bool write) {
  report.provenance["cpu_set"] = std::to_string(place.cpus.size()) + " cpus";
  report.provenance["pinning"] = place.describe();
  report.provenance["connections"] = std::to_string(kConnections);
  report.provenance["window_per_connection"] = std::to_string(kWindow);
  if (write) {
    report.provenance["wal_filesystem"] = filesystem_of(opt.work_dir);
    report.provenance["wal_policy"] =
        "measured phases: no WAL (workers=1, batch_max=32); traced run's "
        "WAL phase: wal_flush_every=1 wal_fsync_every=64 wal_shards=8, "
        "forced write+fsync per batch";
  } else {
    report.provenance["wal_policy"] = "no WAL (read path)";
  }
}

double hist_p(const obs::MetricsSnapshot& snap, const std::string& name,
              double p) {
  const obs::MetricSample* s = snap.find(name);
  return s == nullptr ? 0.0 : s->histogram.percentile(p);
}

}  // namespace

Report run_serve_read(const Options& opt) {
  Report report;
  std::filesystem::create_directories(opt.work_dir);
  const Placement place = Placement::choose();
  put_serve_provenance(report, place, opt, false);

  auto w = build_read_workload(opt.seed);
  // Expected answers, computed in process on an identically warmed store.
  {
    svc::Matchd ref(read_config());
    ref.set_ladder(ladder());
    warm_store(ref, w->trace, kWarmJobs);
    w->expected_preview.assign(w->trace.jobs.size(), 0.0);
    for (std::size_t i = kWarmJobs; i < w->trace.jobs.size(); ++i) {
      w->expected_preview[i] = ref.preview(w->trace.jobs[i]);
    }
  }
  const match::MachineTable table = match::MachineTable::build(w->machines);
  for (const auto& ad : w->ad_objects) {
    const auto rows = match::rank_matches_compiled(ad, table);
    w->expected_rows.emplace_back(rows.begin(), rows.end());
  }
  // Preview outcome: a grant below usage would be killed; the rest are
  // over-provisioned by grant / used. Over every preview task, so the
  // figures are fixed by the seed.
  {
    double kills = 0, previews = 0, granted = 0, used = 0;
    for (const auto& t : w->tasks) {
      if (t.is_match) continue;
      const auto& job = w->trace.jobs[t.item];
      const MiB g = w->expected_preview[t.item];
      previews += 1;
      if (g < job.used_mem_mib) {
        kills += 1;
      } else {
        granted += g * job.nodes;
        used += job.used_mem_mib * job.nodes;
      }
    }
    report.metrics["kill_rate"] = kills / previews;
    report.metrics["overprovision"] = granted / used;
  }
  Expectations expect;
  expect.jobs = &w->trace.jobs;
  expect.preview = &w->expected_preview;
  expect.ads = &w->ads;
  expect.rows = &w->expected_rows;

  const auto check_server = [&](const Service& s) {
    const net::ServerStats st = s.server->stats();
    if (st.protocol_errors != 0) report.fail("server saw protocol errors");
    return st;
  };

  if (!opt.trace) {
    // One service per placement: the client and the server loop sit on
    // another pair of CPUs in each (the first is `place`). Previews and
    // Match leave the store unchanged, so every service answers alike.
    std::vector<Placement> places;
    for (std::size_t k = 0;
         k < std::min(kReadPlacements, std::max<std::size_t>(1, place.cpus.size()));
         ++k) {
      places.push_back(place.rotated(k));
    }
    std::string rotation;
    for (const auto& p : places) {
      if (!rotation.empty()) rotation += "; ";
      rotation += p.describe();
    }
    report.provenance["closed_loop_placements"] = rotation;
    std::vector<double> setups;
    std::size_t made = 0;
    auto services = repeat_setup_keep(setups, places.size(), [&] {
      return start_read_service(opt, *w, places[made++ % places.size()],
                                nullptr);
    });
    std::vector<std::unique_ptr<PipelinedClient>> clients;
    for (const auto& service : services) {
      clients.push_back(std::make_unique<PipelinedClient>(
          service->socket_path, w->tasks, expect, false, report));
    }
    // Closed loop: segments take turns over the placements.
    PhaseResult closed;
    for (std::size_t j = 0; j < kReadSegments; ++j) {
      const std::size_t k = j % places.size();
      if (places[k].client >= 0) pin_current_thread(places[k].client);
      const double segment = opt.seconds * kClosedShare / kReadSegments;
      const PhaseResult part = clients[k]->run_phase(
          segment,
          std::min(j == 0 ? kWarmupS : kSegmentWarmupS, segment / 2), 0.0,
          false);
      closed.sent += part.sent;
      closed.failed += part.failed;
      closed.window_replies.insert(closed.window_replies.end(),
                                   part.window_replies.begin(),
                                   part.window_replies.end());
    }
    // Open loop on the first placement.
    if (place.client >= 0) pin_current_thread(place.client);
    const PhaseResult open = clients.front()->run_phase(
        opt.seconds * kOpenShare, kWarmupS, kReadRate, false);
    for (const auto& service : services) check_server(*service);
    const OpenLoopSummary lat = summarize_open_loop_windows(
        open.samples, open.measured_start, kLatencyWindowS);
    report.attempted = closed.sent + open.sent;
    report.failed = closed.failed + open.failed;
    report.metrics["ops_per_s"] =
        closed_rate_of(closed);
    report.provenance["ops_per_s_window_quartiles"] =
        quartile_text(window_rates(closed));
    report.metrics["latency_p50_us"] = lat.p50_us;
    report.metrics["latency_p99_us"] = lat.p99_us;
    report.metrics["setup_s"] = median(setups);
    report.metrics["peak_rss_mib"] = peak_rss_mib();
    report.provenance["open_loop_rate_per_s"] = std::to_string(kReadRate);
    report.provenance["open_loop_samples"] = std::to_string(lat.samples);
    report.provenance["generator_lateness_p99_us"] =
        std::to_string(lat.lateness_p99_us);
    return report;
  }

  // Traced run: closed loop untraced, then with the obs registry attached,
  // then with the registry and client-side codec timing. Each phase gets
  // a freshly set-up service, so all three answer the same operations
  // and every reply is checked against the same expectations.
  struct Kept {
    PhaseResult phase;
    net::ServerStats server;
    double encode_s = 0.0;
    double decode_s = 0.0;
  };
  const auto closed_rate = [&](obs::Registry* registry, bool codec,
                               Kept* keep) {
    reset_tasks(w->tasks);
    auto service = start_read_service(opt, *w, place, registry);
    PipelinedClient client(service->socket_path, w->tasks, expect, false, report);
    PhaseResult r = client.run_phase(opt.seconds * kTracedShare, kWarmupS, 0.0,
                                     codec);
    const net::ServerStats st = check_server(*service);
    const double rate = closed_rate_of(r);
    report.attempted += r.sent;
    report.failed += r.failed;
    if (keep != nullptr) *keep = {std::move(r), st, client.encode_s, client.decode_s};
    return rate;
  };
  obs::Registry registry;
  Kept kept;
  const double plain = closed_rate(nullptr, false, nullptr);
  const double observed = closed_rate(&registry, false, nullptr);
  const double full = closed_rate(&registry, true, &kept);
  const PhaseResult& traced = kept.phase;
  auto& m = report.metrics;
  m["bench.obs_overhead"] = plain / observed - 1.0;
  m["bench.trace_overhead"] = plain / full - 1.0;
  put_net_metrics(m, kept.server, kept.encode_s, kept.decode_s);

  // svc: the traced phase's previews replayed through the sync API on an
  // identically warmed store; hit = the job's group was warmed.
  {
    svc::Matchd direct(read_config());
    direct.set_ladder(ladder());
    warm_store(direct, w->trace, kWarmJobs);
    std::unordered_set<std::uint64_t> warm;
    for (std::size_t i = 0; i < kWarmJobs; ++i) {
      warm.insert(core::default_similarity_key(w->trace.jobs[i]));
    }
    const auto t0 = Clock::now();
    bool same = true;
    for (const std::uint64_t j : traced.jobs_touched) {
      same &= direct.preview(w->trace.jobs[j]) == w->expected_preview[j];
    }
    m["svc.preview_s"] = seconds_between(t0, Clock::now());
    if (!same) report.fail("direct previews differ from the expected ones");
    double hits = 0;
    for (const std::uint64_t j : traced.jobs_touched) {
      hits += static_cast<double>(
          warm.count(core::default_similarity_key(w->trace.jobs[j])));
    }
    m["svc.store_hit_ratio"] =
        traced.jobs_touched.empty()
            ? 0.0
            : hits / static_cast<double>(traced.jobs_touched.size());
  }
  // match: the traced phase's Match requests ranked directly.
  {
    match::CompiledMatcher::Stats stats;
    double rank_s = 0.0;
    for (const std::uint32_t a : traced.match_ads) {
      const auto t0 = Clock::now();
      const auto rows = match::rank_matches_compiled(w->ad_objects[a], table, &stats);
      rank_s += seconds_between(t0, Clock::now());
      if (!std::equal(rows.begin(), rows.end(), w->expected_rows[a].begin(),
                      w->expected_rows[a].end())) {
        report.fail("direct ranking differs from the expected rows");
      }
    }
    m["match.rank_s"] = rank_s;
    const double total = static_cast<double>(stats.compiled_rows +
                                             stats.fallback_rows +
                                             stats.prefiltered_rows);
    m["match.prefiltered_ratio"] =
        total == 0 ? 0.0 : static_cast<double>(stats.prefiltered_rows) / total;
    m["match.fallback_ratio"] =
        total == 0 ? 0.0 : static_cast<double>(stats.fallback_rows) / total;
  }
  return report;
}

Report run_serve_write(const Options& opt) {
  Report report;
  std::filesystem::create_directories(opt.work_dir);
  const Placement place = Placement::choose();
  put_serve_provenance(report, place, opt, true);

  auto w = build_write_workload(opt.seed);
  w->grants = std::make_unique<GrantTable>(w->trace.jobs);
  w->grants->cover(static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(opt.seconds * kWritePassesPerS)) - 1.0));
  {
    // Outcomes of the first pass (cold groups), fixed by the seed; every
    // grant the service returns in any pass is checked against the replay.
    const GrantTable& t = *w->grants;
    double attempts = 0, kills = 0, granted = 0, used = 0;
    for (std::uint32_t i = 0; i < w->trace.jobs.size(); ++i) {
      const auto& job = w->trace.jobs[i];
      for (std::size_t k = 0; k < t.count(0, i); ++k) {
        const MiB g = t.values[t.begin(0, i) + k];
        attempts += 1;
        if (g < job.used_mem_mib) {
          kills += 1;
        } else {
          granted += g * job.nodes;
          used += job.used_mem_mib * job.nodes;
        }
      }
    }
    report.metrics["kill_rate"] = kills / attempts;
    report.metrics["overprovision"] = granted / used;
  }
  Expectations expect;
  expect.jobs = &w->trace.jobs;
  expect.grants = w->grants.get();
  const auto none = [](svc::Matchd&) {};

  if (!opt.trace) {
    std::vector<double> setups;
    auto service = repeat_setup(setups, [&] {
      return start_service(opt, write_config(opt, false), place, nullptr,
                           nullptr, none);
    });
    PipelinedClient client(service->socket_path, w->tasks, expect, true, report);
    const PhaseResult closed =
        client.run_phase(opt.seconds * kClosedShare, kWarmupS, 0.0, false);
    const PhaseResult open =
        client.run_phase(opt.seconds * kOpenShare, kWarmupS, kWriteRate, false);
    if (service->server->stats().protocol_errors != 0) {
      report.fail("server saw protocol errors");
    }
    const OpenLoopSummary lat = summarize_open_loop_windows(
        open.samples, open.measured_start, kLatencyWindowS);
    report.attempted = closed.sent + open.sent;
    report.failed = closed.failed + open.failed;
    report.metrics["ops_per_s"] =
        closed_rate_of(closed);
    report.provenance["ops_per_s_window_quartiles"] =
        quartile_text(window_rates(closed));
    report.metrics["latency_p50_us"] = lat.p50_us;
    report.metrics["latency_p99_us"] = lat.p99_us;
    report.metrics["setup_s"] = median(setups);
    report.metrics["peak_rss_mib"] = peak_rss_mib();
    report.provenance["open_loop_rate_jobs_per_s"] = std::to_string(kWriteRate);
    report.provenance["open_loop_samples"] = std::to_string(lat.samples);
    report.provenance["generator_lateness_p99_us"] =
        std::to_string(lat.lateness_p99_us);
    return report;
  }

  obs::Registry registry;
  struct Kept {
    std::uint64_t ops = 0;
    std::vector<std::uint64_t> jobs;
    svc::MatchdStats stats;
    net::ServerStats server;
    double encode_s = 0.0;
    double decode_s = 0.0;
    obs::MetricsSnapshot snapshot;
  };
  const auto closed_rate = [&](bool wal, obs::Registry* reg, bool codec,
                               Kept* keep) {
    reset_tasks(w->tasks);
    auto service = start_service(opt, write_config(opt, wal), place, nullptr,
                                 reg, none);
    PipelinedClient client(service->socket_path, w->tasks, expect, true, report);
    PhaseResult r = client.run_phase(opt.seconds * kTracedShare, kWarmupS, 0.0,
                                     codec);
    if (service->server->stats().protocol_errors != 0) {
      report.fail("server saw protocol errors");
    }
    report.attempted += r.sent;
    report.failed += r.failed;
    if (keep != nullptr) {
      keep->ops = r.sent;
      keep->jobs = r.jobs_touched;
      keep->stats = service->matchd->stats();
      keep->server = service->server->stats();
      keep->encode_s = client.encode_s;
      keep->decode_s = client.decode_s;
      if (reg != nullptr) keep->snapshot = reg->snapshot();
    }
    return closed_rate_of(r);
  };
  Kept traced;
  Kept logged;
  const double plain = closed_rate(false, nullptr, false, nullptr);
  const double observed = closed_rate(false, &registry, false, nullptr);
  const double full = closed_rate(false, &registry, true, &traced);
  // The WAL phase: same traffic with the default durability cadence, the
  // log in the checkout (its filesystem is in the provenance).
  const double with_wal = closed_rate(true, nullptr, false, &logged);
  auto& m = report.metrics;
  m["bench.obs_overhead"] = plain / observed - 1.0;
  m["bench.trace_overhead"] = plain / full - 1.0;
  put_net_metrics(m, traced.server, traced.encode_s, traced.decode_s);
  m["svc.batch_size_mean"] =
      traced.stats.batch_drains == 0
          ? 0.0
          : static_cast<double>(traced.stats.async_accepted) /
                static_cast<double>(traced.stats.batch_drains);
  const double hits = static_cast<double>(traced.stats.store.hits);
  const double misses = static_cast<double>(traced.stats.store.misses);
  m["svc.store_hit_ratio"] = hits + misses == 0 ? 0.0 : hits / (hits + misses);
  m["svc.queue_wait_p50_us"] =
      hist_p(traced.snapshot, "resmatch_matchd_queue_wait_seconds", 50.0) * 1e6;
  m["svc.queue_wait_p99_us"] =
      hist_p(traced.snapshot, "resmatch_matchd_queue_wait_seconds", 99.0) * 1e6;
  const double wal_ops = static_cast<double>(std::max<std::uint64_t>(1, logged.ops));
  m["svc.wal_fsyncs_per_op"] = static_cast<double>(logged.stats.wal.fsyncs) / wal_ops;
  m["svc.wal_bytes_per_op"] =
      static_cast<double>(logged.stats.wal.bytes_written) / wal_ops;
  m["svc.wal_slowdown"] = plain / with_wal - 1.0;

  // svc: the traced phase's jobs replayed through the sync API, pass by
  // pass in trace order (so each group sees its own order).
  {
    std::vector<std::uint64_t> jobs = traced.jobs;
    std::sort(jobs.begin(), jobs.end());
    svc::MatchdConfig cfg = write_config(opt, false);
    cfg.workers = 0;
    svc::Matchd direct(cfg);
    direct.set_ladder(ladder());
    double submit_s = 0, feedback_s = 0;
    for (const std::uint64_t pj : jobs) {
      const auto& job = w->trace.jobs[static_cast<std::uint32_t>(pj)];
      for (std::uint32_t a = 0; a < kMaxAttempts; ++a) {
        const auto t0 = Clock::now();
        const svc::MatchDecision d = direct.submit(job);
        const auto t1 = Clock::now();
        core::Feedback fb;
        fb.success = d.granted_mib >= job.used_mem_mib;
        fb.granted_mib = d.granted_mib;
        direct.feedback(job, fb);
        submit_s += seconds_between(t0, t1);
        feedback_s += seconds_between(t1, Clock::now());
        if (fb.success) break;
      }
    }
    m["svc.submit_s"] = submit_s;
    m["svc.feedback_s"] = feedback_s;
  }
  return report;
}

}  // namespace perfbench
