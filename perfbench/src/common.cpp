#include "common.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/rng.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  resmatch::util::Rng rng(seed ^ (salt * 0x9E3779B97F4A7C15ULL));
  return rng();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  // Equal neighbours (including two infinities) need no interpolation;
  // interpolating would turn inf - inf into NaN.
  if (lo == hi || values[lo] == values[hi]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  const std::size_t n = values.size();
  if (n < 2) return q;
  std::sort(values.begin(), values.end());
  // statistics.quantiles(data, n=4, method="exclusive"), integer exact.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

std::string quartile_text(const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g / %.6g", q.q1, q.q3);
  return buf;
}

OpenLoopSummary summarize_open_loop(const std::vector<OpenLoopSample>& samples) {
  OpenLoopSummary s;
  std::vector<double> latency;
  std::vector<double> lateness;
  latency.reserve(samples.size());
  lateness.reserve(samples.size());
  for (const auto& r : samples) {
    if (r.answered) {
      latency.push_back((r.done_s - r.due_s) * 1e6);
      lateness.push_back((r.sent_s - r.due_s) * 1e6);
    } else {
      latency.push_back(std::numeric_limits<double>::infinity());
      ++s.failed;
    }
  }
  s.samples = samples.size();
  s.p50_us = percentile(latency, 50.0);
  s.p99_us = percentile(latency, 99.0);
  s.lateness_p99_us = percentile(lateness, 99.0);
  return s;
}

OpenLoopSummary summarize_open_loop_windows(
    const std::vector<OpenLoopSample>& samples, double start_s,
    double window_s) {
  std::vector<std::vector<OpenLoopSample>> windows;
  for (const auto& r : samples) {
    const auto w = static_cast<std::size_t>(
        std::max(0.0, (r.due_s - start_s) / window_s));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(r);
  }
  const OpenLoopSummary all = summarize_open_loop(samples);
  std::vector<double> p50;
  std::vector<double> p99;
  for (const auto& w : windows) {
    if (w.empty()) continue;
    const OpenLoopSummary s = summarize_open_loop(w);
    p50.push_back(s.p50_us);
    p99.push_back(s.p99_us);
  }
  OpenLoopSummary out = all;
  out.p50_us = median(p50);
  out.p99_us = median(p99);
  return out;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

bool pin_current_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

void release_free_memory() { ::malloc_trim(0); }

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string filesystem_of(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

}  // namespace perfbench
