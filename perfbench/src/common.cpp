#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "crypto/sha256_backend.h"

namespace perfbench {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

Tail tail(std::vector<double> samples, size_t beyond) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n <= beyond || n == 1) return {100, samples.back()};
  const size_t k = n - 1 - beyond;
  return {100.0 * static_cast<double>(k) / static_cast<double>(n - 1),
          samples[k]};
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& span : spans) {
    if (span.parent == kNoParent || span.parent >= spans.size()) continue;
    const Span& parent = spans[span.parent];
    const double lo = std::max(span.start_us, parent.start_us);
    const double hi = std::min(span.end_us, parent.end_us);
    if (hi > lo) children[span.parent].push_back({lo, hi});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& cover = children[i];
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    double run_lo = 0;
    double run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (spans[i].end_us - spans[i].start_us) - covered;
  }
  return self;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

u32 Tracer::begin(std::string_view name, u64 trace_id) {
  if (!enabled_) return kNoParent;
  Span span;
  span.name = std::string(name);
  span.trace_id = trace_id;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<u32>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(u32 index) {
  if (index == kNoParent) return;
  spans_[index].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  // Spans close in LIFO order on the benchmark thread.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const auto self = self_times_us(spans_);
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                  s.start_us, s.end_us - s.start_us);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name << "\","
        << buf << "\"args\":{\"trace_id\":" << s.trace_id
        << ",\"span\":" << i << ",\"parent\":"
        << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
        << ",\"self_us\":" << self[i] << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Ledger::add(std::string_view name, double value) {
  auto it = samples_.find(name);
  if (it == samples_.end()) {
    it = samples_.emplace(std::string(name), std::vector<double>{}).first;
  }
  it->second.push_back(value);
}

const std::vector<double>* Ledger::find(std::string_view name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? nullptr : &it->second;
}

double Ledger::median_of(std::string_view name) const {
  const auto* samples = find(name);
  return samples == nullptr ? 0 : median(*samples);
}

bool Checks::op(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (misses_.size() < 32) misses_.emplace_back(what);
  }
  return ok;
}

bool Checks::expect_reject(bool rejected, std::string_view what) {
  return op(rejected, std::string("expected rejection was accepted: ") +
                          std::string(what));
}

void Checks::merge(const Checks& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& miss : other.misses_) {
    if (misses_.size() < 32) misses_.push_back(miss);
  }
}

u64 ObsDelta::counter(std::string_view name) const {
  const u64* a = after_->find_counter(name);
  const u64* b = before_->find_counter(name);
  return (a ? *a : 0) - (b ? *b : 0);
}

double ObsDelta::hist_sum(std::string_view name) const {
  const auto* a = after_->find_histogram(name);
  const auto* b = before_->find_histogram(name);
  return (a ? a->sum : 0) - (b ? b->sum : 0);
}

double ObsDelta::gauge(std::string_view name) const {
  const double* a = after_->find_gauge(name);
  return a ? *a : 0;
}

u64 sha256_blocks_total() {
  u64 blocks = 0;
  for (size_t b = 0; b < zkt::crypto::kSha256BackendCount; ++b) {
    blocks += zkt::crypto::sha256_backend_stats(
                  static_cast<zkt::crypto::Sha256Backend>(b))
                  .blocks;
  }
  return blocks;
}

void Run::closed_loop(u64 warmup, u64 min_iters, u64 max_iters,
                      const std::function<u64(u64)>& trace_id,
                      const std::function<bool(u64)>& body) {
  const auto step = [&](u64 i) {
    tracer.set_enabled(args.trace && i % 2 == 0);
    trace_id_ = trace_id(i);
    const u32 root = tracer.begin("window", trace_id_);
    const bool more = body(i);
    tracer.end(root);
    tracer.set_enabled(false);
    return more;
  };
  bool more = true;
  u64 i = 0;
  for (; more && i < warmup && i < max_iters; ++i) more = step(i);
  e2e.window_ms.clear();
  e2e.query_ms.clear();
  e2e.audit_query_ms.clear();
  e2e.audit_rounds_per_s.clear();
  e2e.records = 0;
  ledger.clear();
  tracer.clear();

  const double cpu_start = cpu_ms();
  const auto start = Clock::now();
  const double budget_ms = args.seconds * 1e3;
  for (u64 measured = 0; more && i < max_iters; ++i, ++measured) {
    if (measured >= min_iters && ms_since(start) >= budget_ms) break;
    more = step(i);
  }
  e2e.loop_s = ms_since(start) / 1e3;
  e2e.loop_cpu_ms = cpu_ms() - cpu_start;
}

void Run::add_window_ms(double ms) {
  e2e.window_ms.push_back(ms);
  if (args.trace) {
    ledger.add(tracer.enabled() ? "bench.window_ms.traced"
                                : "bench.window_ms.untraced",
               ms);
  }
}

std::string Run::out_path(std::string_view file) const {
  return args.out_dir + "/" + std::string(file);
}

void timed_setups(Run& run, int repetitions,
                  const std::function<std::string()>& setup) {
  std::string first;
  for (int r = 0; r < repetitions; ++r) {
    const auto start = Clock::now();
    const std::string print = setup();
    run.e2e.setup_s.push_back(ms_since(start) / 1e3);
    if (r == 0) {
      first = print;
      run.setup_print = print;
    } else {
      run.checks.op(print == first,
                    "exact repeat: set-up " + std::to_string(r) +
                        " fingerprint differs from set-up 0");
    }
  }
}

}  // namespace perfbench
