// Self-test of the benchmark's own arithmetic: percentiles, tail-percentile
// selection and span self time. run.py runs it before every measurement.
#include <cmath>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

namespace {

int misses = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::fprintf(stderr, "self-test miss: %s: got %.12g, want %.12g\n", what,
                 got, want);
    ++misses;
  }
}

Span span(const char* name, u32 parent, double start, double end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_us = start;
  s.end_us = end;
  return s;
}

}  // namespace

int run_selftest() {
  misses = 0;
  // Percentiles interpolate linearly between order statistics, on
  // unsorted input.
  expect_near(percentile({}, 50), 0, "percentile of nothing");
  expect_near(percentile({7}, 90), 7, "percentile of one sample");
  expect_near(median({3, 1, 2}), 2, "odd median");
  expect_near(median({4, 1, 3, 2}), 2.5, "even median");
  expect_near(percentile({10, 20, 30, 40, 50}, 25), 20, "p25 on a knot");
  expect_near(percentile({10, 20, 30, 40, 50}, 90), 46, "p90 between knots");
  expect_near(percentile({1, 2}, 100), 2, "p100 is the maximum");
  expect_near(percentile({1, 2}, 0), 1, "p0 is the minimum");

  // Tail: the highest percentile with at least 10 samples beyond it.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const Tail t100 = tail(hundred);
  expect_near(t100.value, 90, "tail of 1..100 is the 90th value");
  expect_near(t100.pct, 100.0 * 89 / 99, "tail of 1..100 percentile");
  std::vector<double> thirty;
  for (int i = 1; i <= 30; ++i) thirty.push_back(i * 2.0);
  const Tail t30 = tail(thirty);
  expect_near(t30.value, 40, "tail of 30 samples leaves 10 above");
  int above = 0;
  for (double v : thirty) above += v > t30.value ? 1 : 0;
  expect_near(above, 10, "exactly 10 samples beyond the tail");
  const Tail t5 = tail({5, 1, 3, 4, 2});
  expect_near(t5.value, 5, "too few samples: tail is the maximum");
  expect_near(t5.pct, 100, "too few samples: p100");

  // Self time: duration minus the union of direct children, clipped to the
  // parent; grandchildren do not count against the root.
  const std::vector<Span> spans = {
      span("root", kNoParent, 0, 100),  // 0
      span("a", 0, 10, 30),             // 1
      span("b", 0, 25, 40),             // 2: overlaps a by 5
      span("a.x", 1, 12, 20),           // 3: inside a
      span("c", 0, 90, 120),            // 4: runs past the root's end
      span("d", 0, 50, 50),             // 5: empty
  };
  const auto self = self_times_us(spans);
  expect_near(self[0], 100 - 30 - 10, "root self time");
  expect_near(self[1], 20 - 8, "child self time");
  expect_near(self[2], 15, "leaf self time");
  expect_near(self[3], 8, "grandchild self time");
  expect_near(self[4], 30, "overhanging leaf self time");
  expect_near(self[5], 0, "empty span self time");

  if (misses == 0) std::printf("self-test: ok\n");
  return misses;
}

}  // namespace perfbench
