// Checks of the harness's own arithmetic, run before every result is
// printed. A failure marks the run incorrect: numbers computed by broken
// arithmetic are not reported.
#include <cmath>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(b)); }

}  // namespace

void self_check(Report& report) {
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) report.fail("self-check: " + what);
  };

  // Percentiles interpolate between closest ranks.
  expect(near(percentile({4, 1, 3, 2}, 50.0), 2.5), "median of 1..4");
  expect(near(percentile({4, 1, 3, 2}, 0.0), 1.0), "p0");
  expect(near(percentile({4, 1, 3, 2}, 100.0), 4.0), "p100");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  expect(near(percentile(hundred, 99.0), 100.0), "p99 of 1..101");

  // Quartiles match Python's statistics.quantiles(n=4):
  // [1..10] -> 2.75, 8.25; [1, 2] -> 0.75, 2.25.
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  const Quartiles q10 = quartiles(ten);
  expect(near(q10.q1, 2.75) && near(q10.q3, 8.25), "quartiles of 1..10");
  const Quartiles q2 = quartiles({2, 1});
  expect(near(q2.q1, 0.75) && near(q2.q3, 2.25), "quartiles of 1, 2");

  // Latency runs from the due time: a request sent 10 ms late and answered
  // 100 us after sending waited 10.1 ms.
  {
    std::vector<OpenLoopSample> s(200);
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = {static_cast<double>(i), static_cast<double>(i) + 0.010,
              static_cast<double>(i) + 0.0101, true};
    }
    const auto sum = summarize_open_loop(s);
    expect(near(sum.p50_us, 10100.0), "latency measured from due time");
    expect(near(sum.lateness_p99_us, 10000.0), "generator lateness");
    expect(sum.failed == 0, "no failures counted in a clean run");
  }

  // A refused or unanswered request misses every latency limit.
  {
    std::vector<OpenLoopSample> s(100, OpenLoopSample{0.0, 0.0, 1e-6, true});
    s.push_back({0.0, 0.0, 0.0, false});
    s.push_back({0.0, 0.0, 0.0, false});
    const auto sum = summarize_open_loop(s);
    expect(sum.failed == 2, "refused requests counted as failed");
    expect(std::isinf(sum.p99_us), "refused requests miss the p99 limit");
    expect(near(sum.p50_us, 1.0), "p50 unaffected by two refusals");
  }

  // Windowed latency: a stall confined to one of three windows does not
  // move the median window's p99; refusals still count as failures.
  {
    std::vector<OpenLoopSample> s;
    for (int w = 0; w < 3; ++w) {
      for (int i = 0; i < 200; ++i) {
        const double due = w + i / 200.0;
        const double lat = w == 1 ? 0.050 : 100e-6;
        s.push_back({due, due, due + lat, true});
      }
    }
    s.push_back({2.5, 2.5, 0.0, false});
    const auto sum = summarize_open_loop_windows(s, 0.0, 1.0);
    expect(near(sum.p99_us, 100.0), "windowed p99 is the median window's");
    expect(sum.failed == 1 && sum.samples == 601, "windowed totals");
  }

  // Decorators used by traced runs change no decision.
  expect(sim_decorators_transparent(), "traced simulation decides alike");
}

}  // namespace perfbench
