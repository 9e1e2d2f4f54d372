// Shared machinery of the end-to-end benchmark: the statistics it reports,
// the span recorder behind the traced run, the per-layer ledger, the
// correctness tally, and the closed loop every workload runs in.
//
// Layers are timed from outside: a workload wraps each call into a layer's
// public API in Run::timed(), which adds the wall time to the ledger under
// the layer's metric name and, in a traced window, records a span. Nothing
// here reaches into src/; values the program publishes itself (ProveInfo,
// VerifyStats, LogStore::stats(), SHA-256 backend stats, obs::Registry
// instruments) are read after the call returns.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "obs/metrics.h"

namespace perfbench {

using zkt::u32;
using zkt::u64;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start);
/// Process user + system CPU time, all threads.
double cpu_ms();
/// Peak resident set size of the process so far.
double peak_rss_mb();

// --- statistics (checked by selftest.cpp) ---------------------------------

/// Percentile p in [0, 100] by linear interpolation between order
/// statistics (position p/100 * (n-1)); 0 for no samples.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// The highest percentile that still has at least `beyond` samples above
/// it: the order statistic x[n-1-beyond] of the sorted samples, reported
/// with its percentile 100*(n-1-beyond)/(n-1). With n <= beyond samples
/// there is no such percentile and the maximum is returned as p100.
struct Tail {
  double pct = 0;
  double value = 0;
};
Tail tail(std::vector<double> samples, size_t beyond = 10);

// --- spans ----------------------------------------------------------------

inline constexpr u32 kNoParent = 0xFFFFFFFFu;

struct Span {
  std::string name;
  u64 trace_id = 0;
  u32 parent = kNoParent;  ///< index into the span list
  double start_us = 0;
  double end_us = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// In-memory span recorder, single-threaded (every wrapped call runs on the
/// benchmark's thread). Spans are written out once, at the end of the run.
class Tracer {
 public:
  Tracer();
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Open a span under the innermost open one; returns its index, or
  /// kNoParent when tracing is off.
  u32 begin(std::string_view name, u64 trace_id);
  void end(u32 index);
  const std::vector<Span>& spans() const { return spans_; }
  /// Forget every recorded span; call only while no span is open.
  void clear() {
    spans_.clear();
    open_.clear();
  }
  /// Chrome trace-event JSON ("X" complete events; parent and trace id in
  /// args), loadable in chrome://tracing or Perfetto.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<u32> open_;
};

// --- ledger and checks ----------------------------------------------------

/// Per-layer samples by metric name; a metric's value is the median.
class Ledger {
 public:
  void add(std::string_view name, double value);
  double median_of(std::string_view name) const;
  const std::vector<double>* find(std::string_view name) const;
  void clear() { samples_.clear(); }

 private:
  std::map<std::string, std::vector<double>, std::less<>> samples_;
};

/// Operation and correctness tally. Every attempted operation counts; an
/// expected rejection counts as a success when it is rejected.
class Checks {
 public:
  bool op(bool ok, std::string_view what);
  bool expect_reject(bool rejected, std::string_view what);
  /// Fold in the tally of a side run (set-ups, replays).
  void merge(const Checks& other);
  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }
  const std::vector<std::string>& misses() const { return misses_; }

 private:
  u64 attempted_ = 0;
  u64 failed_ = 0;
  std::vector<std::string> misses_;
};

/// Deltas of the process-wide obs registry between two snapshots.
class ObsDelta {
 public:
  ObsDelta(const zkt::obs::Snapshot& before, const zkt::obs::Snapshot& after)
      : before_(&before), after_(&after) {}
  u64 counter(std::string_view name) const;
  double hist_sum(std::string_view name) const;
  /// Current value of a gauge in the later snapshot (0 when absent).
  double gauge(std::string_view name) const;

 private:
  const zkt::obs::Snapshot* before_;
  const zkt::obs::Snapshot* after_;
};

/// Compression blocks hashed by every SHA-256 backend so far.
u64 sha256_blocks_total();

/// End-to-end samples a workload fills in.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> window_ms;
  std::vector<double> query_ms;
  std::vector<double> audit_query_ms;
  /// Acceptance rate of each accepting call (rounds accepted over the
  /// call's time): one live accept per window, or one cold-audit pass.
  std::vector<double> audit_rounds_per_s;

  void add_accepted(u64 rounds, double ms) {
    audit_rounds_per_s.push_back(static_cast<double>(rounds) / (ms / 1e3));
  }
  double loop_s = 0;
  double loop_cpu_ms = 0;
  u64 records = 0;
  u64 proof_bytes = 0;
  u64 proof_rounds = 0;
};

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Per-invocation context handed to a workload.
class Run {
 public:
  explicit Run(Args args) : args(std::move(args)) {}

  Args args;
  Tracer tracer;
  Ledger ledger;
  Checks checks;
  EndToEnd e2e;
  /// Exact-repeat fingerprint lines (one per round compared), written next
  /// to the results so a later run with the same seed and binary can be
  /// compared byte for byte.
  std::vector<std::string> fingerprint;
  /// Fingerprint of the state set-up built (see timed_setups).
  std::string setup_print;

  /// Time `fn()` as layer `name`: ledger sample (ms) and, when the current
  /// window is traced, a span under the open window span.
  template <typename F>
  decltype(auto) timed(std::string_view name, F&& fn) {
    const u32 span = tracer.begin(name, trace_id_);
    const auto start = Clock::now();
    struct Close {
      Run* run;
      u32 span;
      std::string_view name;
      Clock::time_point start;
      ~Close() {
        run->ledger.add(name, ms_since(start));
        run->tracer.end(span);
      }
    } close{this, span, name, start};
    return fn();
  }

  /// Run `body(i)` in a closed loop until the run's seconds have elapsed
  /// (at least `min_iters`, at most `max_iters` measured iterations) or the
  /// body returns false. The first `warmup` iterations run before the clock
  /// starts and their samples are discarded (caches, the allocator and the
  /// store's files settle; the first window after set-up is the slowest).
  /// Each iteration is one window root span, trace id `trace_id(i)`; in a
  /// traced run every other window records spans, so the run can report its
  /// own tracing overhead.
  void closed_loop(u64 warmup, u64 min_iters, u64 max_iters,
                   const std::function<u64(u64)>& trace_id,
                   const std::function<bool(u64)>& body);

  /// Record a window's latency, split by traced/untraced for the overhead.
  void add_window_ms(double ms);

  std::string out_path(std::string_view file) const;

 private:
  u64 trace_id_ = 0;
};

/// Run `setup()` `repetitions` times, timing each into e2e.setup_s. Each
/// call builds the workload's state from nothing and returns its
/// fingerprint; every repetition must produce the same one.
void timed_setups(Run& run, int repetitions,
                  const std::function<std::string()>& setup);

}  // namespace perfbench
