// zkt_perfbench: one end-to-end benchmark of zktel.
//
//   zkt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   zkt_perfbench --self-test
//
// Runs one workload in a closed loop for S seconds, checks every answer,
// and prints each metric with its unit, a stamp line (hardware, pool,
// SHA-256 backend, build), and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
// from a run that records spans in every other window and writes them as
// Chrome trace-event JSON. Exit status is 0 only when every check passed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/thread_pool.h"
#include "crypto/sha256_backend.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  Metric(std::string name, double value, std::string unit,
         std::string note = {})
      : name(std::move(name)),
        value(value),
        unit(std::move(unit)),
        note(std::move(note)) {}
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

enum class Reduce { median, mean, max };

struct LayerMetric {
  LayerMetric(std::string name, std::string unit, std::string series = {},
              Reduce reduce = Reduce::median)
      : name(std::move(name)),
        unit(std::move(unit)),
        series(std::move(series)),
        reduce(reduce) {}
  std::string name;
  std::string unit;
  /// Ledger series the value is reduced from; empty = `name`.
  std::string series;
  Reduce reduce = Reduce::median;
};

/// The per-layer metrics, in BENCHMARK.json order. Each is the median of
/// its per-window (or per-call) samples unless noted.
std::vector<LayerMetric> layer_metrics() {
  std::vector<LayerMetric> m = {
      {"zvm.prover.execute_ms", "ms"},
      {"zvm.prover.commit_ms", "ms"},
      {"zvm.prover.total_ms", "ms"},
      {"zvm.prover.cycles", "count"},
      {"zvm.prover.sha_rows", "count"},
      {"zvm.prover.weighted_cycles", "count"},
      {"zvm.prover.segments", "count"},
      {"crypto.sha256.blocks", "count"},
      {"core.agg.round_ms", "ms"},
      {"core.agg.host_ms", "ms"},
      {"core.agg.touched_entries", "count"},
      {"core.agg.resident_entries", "count"},
      {"core.agg.delta_ratio", "ratio", "core.agg.delta_round", Reduce::mean},
      {"core.pipeline.io_ms", "ms"},
      {"store.wal_bytes", "bytes"},
      {"store.appends", "count"},
      {"sim.commit_ms", "ms"},
      {"sim.records", "count"},
  };
  for (const char* kind :
       {"selective", "complete", "sketch_heavy", "sketch_card"}) {
    m.push_back({std::string("core.query.prove_ms.") + kind, "ms"});
    m.push_back({std::string("core.query.verify_ms.") + kind, "ms"});
    m.push_back({std::string("core.query.cycles.") + kind, "count"});
  }
  const std::vector<LayerMetric> rest = {
      {"core.query.sketch_ratio", "ratio", "core.query.sketch_served",
       Reduce::mean},
      {"core.auditor.accept_ms", "ms"},
      {"core.pipeline.stage_ms", "ms"},
      {"core.pipeline.prove_ms", "ms"},
      {"core.pipeline.fold_wait_ms", "ms"},
      {"core.tree.fold_ms", "ms"},
      {"core.sharded.imbalance", "ratio"},
      {"common.pool.tasks", "count"},
      {"common.pool.queue_depth", "count", "", Reduce::max},
      {"core.auditor.audit_ms", "ms"},
      {"core.io.parse_ms", "ms"},
      {"zvm.verifier.receipts_verified", "count"},
      {"zvm.verifier.openings_checked", "count"},
      {"zvm.verifier.assumptions_skipped_ratio", "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (const char* kind :
       {"selective", "complete", "sketch_heavy", "sketch_card"}) {
    m.push_back({std::string("core.auditor.query_verify_ms.") + kind, "ms"});
  }
  return m;
}

double reduce(const std::vector<double>* samples, Reduce how) {
  if (samples == nullptr || samples->empty()) return 0;
  switch (how) {
    case Reduce::mean: {
      double sum = 0;
      for (double v : *samples) sum += v;
      return sum / static_cast<double>(samples->size());
    }
    case Reduce::max: {
      double best = samples->front();
      for (double v : *samples) best = std::max(best, v);
      return best;
    }
    case Reduce::median:
      break;
  }
  return median(*samples);
}

/// Tail percentile of each workload. It is fixed, so the metric does not
/// move to a deeper percentile when the host or the program gets faster and
/// a run holds more samples. Each is the highest whole percentile that
/// leaves at least 10 samples beyond it (tail()) at the median sample count
/// of ten 20 s runs on a shared 4-vCPU host: paper_window 37, steady_delta
/// 160, sharded_fold 38 and cold_audit 91 samples.
double tail_percentile(const std::string& workload) {
  if (workload == "steady_delta") return 93;
  if (workload == "cold_audit") return 88;
  return 72;  // paper_window, sharded_fold
}

std::string pct_note(double pct, const std::vector<double>& samples) {
  const size_t n = samples.size();
  const double beyond =
      n == 0 ? 0 : static_cast<double>(n - 1) * (1 - pct / 100);
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "tail = p%.0f of %zu samples, %.1f beyond (10-beyond: p%.1f)",
                pct, n, beyond, tail(samples).pct);
  return buf;
}

std::vector<Metric> end_to_end_metrics(const Run& run) {
  const EndToEnd& e = run.e2e;
  const double windows = static_cast<double>(e.window_ms.size());
  const double pct = tail_percentile(run.args.workload);
  return {
      {"setup_s", median(e.setup_s), "s",
       std::to_string(e.setup_s.size()) + " set-ups"},
      {"window_ms_p50", median(e.window_ms), "ms",
       std::to_string(e.window_ms.size()) + " windows"},
      {"window_ms_tail", percentile(e.window_ms, pct), "ms",
       pct_note(pct, e.window_ms)},
      {"records_per_s",
       e.loop_s > 0 ? static_cast<double>(e.records) / e.loop_s : 0, "1/s",
       std::to_string(e.records) + " records"},
      {"cpu_ms_per_window", windows > 0 ? e.loop_cpu_ms / windows : 0, "ms"},
      {"query_ms_p50", median(e.query_ms), "ms",
       std::to_string(e.query_ms.size()) + " query sets"},
      {"query_ms_tail", percentile(e.query_ms, pct), "ms",
       pct_note(pct, e.query_ms)},
      {"audit_rounds_per_s", median(e.audit_rounds_per_s), "1/s",
       std::to_string(e.audit_rounds_per_s.size()) + " accepting calls"},
      {"audit_query_ms_p50", median(e.audit_query_ms), "ms",
       std::to_string(e.audit_query_ms.size()) + " query verifies"},
      {"proof_bytes_per_round",
       e.proof_rounds > 0 ? static_cast<double>(e.proof_bytes) /
                                static_cast<double>(e.proof_rounds)
                          : 0,
       "bytes"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const Run& run) {
  std::vector<Metric> out;
  for (const auto& m : layer_metrics()) {
    const std::string& series = m.series.empty() ? m.name : m.series;
    out.push_back({m.name, reduce(run.ledger.find(series), m.reduce), m.unit});
  }
  out.push_back({"failed_ops_ratio",
                 run.checks.attempted() == 0
                     ? 0
                     : static_cast<double>(run.checks.failed()) /
                           static_cast<double>(run.checks.attempted()),
                 "ratio"});
  out.push_back({"bench.trace_overhead_ms",
                 run.ledger.median_of("bench.window_ms.traced") -
                     run.ledger.median_of("bench.window_ms.untraced"),
                 "ms", "traced minus untraced window p50, same run"});
  std::vector<double> root_self;
  const auto self = self_times_us(run.tracer.spans());
  for (size_t i = 0; i < self.size(); ++i) {
    if (run.tracer.spans()[i].parent == kNoParent) {
      root_self.push_back(self[i] / 1e3);
    }
  }
  out.push_back({"bench.window_self_ms", median(root_self), "ms",
                 "window span minus its wrapped layer calls"});
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

void print_stamp(const Run& run) {
  const char* backend =
      zkt::crypto::sha256_backend_name(zkt::crypto::sha256_active_backend());
  std::printf(
      "stamp {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"nproc\":%ld,\"pool_threads\":%zu,\"sha256_backend\":\"%s\","
      "\"build_type\":\"%s\",\"compiler\":\"%s\"}\n",
      run.args.workload.c_str(), static_cast<unsigned long long>(run.args.seed),
      json_number(run.args.seconds).c_str(), run.args.trace ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN),
      zkt::common::ThreadPool::shared().thread_count(), backend,
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
}

int usage() {
  std::fprintf(stderr,
               "usage: zkt_perfbench --workload "
               "paper_window|steady_delta|sharded_fold|cold_audit "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
               "       zkt_perfbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return run_selftest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  void (*workload)(Run&) = nullptr;
  if (args.workload == "paper_window") workload = run_paper_window;
  if (args.workload == "steady_delta") workload = run_steady_delta;
  if (args.workload == "sharded_fold") workload = run_sharded_fold;
  if (args.workload == "cold_audit") workload = run_cold_audit;
  if (workload == nullptr || !(args.seconds > 0)) return usage();

  Run run(args);
  run.args.out_dir = args.out_dir + "/" + args.workload;
  std::filesystem::remove_all(run.args.out_dir);
  std::filesystem::create_directories(run.args.out_dir);
  workload(run);

  if (args.trace) {
    const std::string trace_path =
        args.out_dir + "/trace-" + args.workload + "-" +
        std::to_string(args.seed) + ".json";
    run.checks.op(run.tracer.write_chrome_json(trace_path),
                  "write the Chrome trace");
    std::printf("trace %s (%zu spans)\n", trace_path.c_str(),
                run.tracer.spans().size());
  }
  {
    std::ofstream out(args.out_dir + "/fingerprint-" + args.workload + "-" +
                      std::to_string(args.seed) + ".txt");
    out << "setup " << run.setup_print << "\n";
    for (const auto& line : run.fingerprint) out << line << "\n";
  }
  {
    // Raw end-to-end samples, in run order, for looking at a run's spread.
    std::ofstream out(args.out_dir + "/samples-" + args.workload + "-" +
                      std::to_string(args.seed) + ".json");
    const auto series = [&](const char* name, const std::vector<double>& v) {
      out << "\"" << name << "\": [";
      for (size_t i = 0; i < v.size(); ++i) {
        out << (i == 0 ? "" : ", ") << json_number(v[i]);
      }
      out << "]";
    };
    out << "{";
    series("setup_s", run.e2e.setup_s);
    out << ", ";
    series("window_ms", run.e2e.window_ms);
    out << ", ";
    series("query_ms", run.e2e.query_ms);
    out << ", ";
    series("audit_query_ms", run.e2e.audit_query_ms);
    out << "}\n";
  }

  const auto metrics =
      args.trace ? per_layer_metrics(run) : end_to_end_metrics(run);
  for (const auto& m : metrics) {
    std::printf("%-44s %16.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const auto& miss : run.checks.misses()) {
    std::printf("MISS %s\n", miss.c_str());
  }
  print_stamp(run);
  const bool correct = run.checks.failed() == 0;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " +
                     std::to_string(std::max<u64>(run.checks.attempted(), 1)) +
                     ", \"failed\": " + std::to_string(run.checks.failed()) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + json_escape(metrics[i].name) +
            "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + json_escape(metrics[i].unit) + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
