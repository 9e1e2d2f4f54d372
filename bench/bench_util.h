// Shared helpers for the zktel benchmark harness: deterministic workload
// construction matching the paper's evaluation setup (4 routers, one
// commitment window, N total NetFlow records).
#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/zkt.h"
#include "obs/metrics.h"
#include "sim/workload.h"

namespace zkt::bench {

struct CommittedWorkload {
  // unique_ptr because CommitmentBoard holds a mutex (not movable).
  std::unique_ptr<core::CommitmentBoard> board =
      std::make_unique<core::CommitmentBoard>();
  std::vector<netflow::RLogBatch> batches;
  u64 total_records = 0;
};

/// Build `record_count` distinct-flow records spread over `router_count`
/// routers in one window, each batch committed and published.
inline CommittedWorkload make_committed_workload(u64 record_count,
                                                 u32 router_count = 4,
                                                 u64 window_id = 1,
                                                 u64 seed = 42) {
  CommittedWorkload out;
  std::vector<crypto::SchnorrKeyPair> keys;
  for (u32 r = 0; r < router_count; ++r) {
    keys.push_back(crypto::schnorr_keygen_from_seed(
        "bench-router-" + std::to_string(seed) + "-" + std::to_string(r)));
  }
  Xoshiro256 rng(seed);
  std::vector<netflow::RLogBatch> batches(router_count);
  for (u32 r = 0; r < router_count; ++r) {
    batches[r].router_id = r;
    batches[r].window_id = window_id;
  }
  for (u64 i = 0; i < record_count; ++i) {
    netflow::FlowRecord rec;
    netflow::PacketObservation pkt;
    pkt.key = sim::synth_flow_key(seed * 1'000'000 + i, seed);
    pkt.timestamp_ms = 1000 + i;
    pkt.bytes = 800 + static_cast<u32>(rng.uniform(700));
    pkt.hop_count = static_cast<u8>(2 + rng.uniform(10));
    pkt.rtt_us = 10'000 + static_cast<u32>(rng.uniform(50'000));
    pkt.jitter_us = static_cast<u32>(rng.uniform(4'000));
    rec.observe(pkt);
    pkt.timestamp_ms += 5;
    pkt.dropped = rng.uniform(100) == 0;
    rec.observe(pkt);
    batches[i % router_count].records.push_back(std::move(rec));
  }
  for (u32 r = 0; r < router_count; ++r) {
    auto commitment =
        core::make_commitment(batches[r], keys[r], window_id * 5000);
    if (!commitment.ok() || !out.board->publish(commitment.value()).ok()) {
      std::abort();
    }
  }
  out.batches = std::move(batches);
  out.total_records = record_count;
  return out;
}

/// Commit a follow-up window over the SAME flows (same seed -> same keys) so
/// aggregating it exercises Algorithm 1's update path: every record merges
/// into an existing CLog entry, authenticated against the previous round's
/// tree.
inline std::vector<netflow::RLogBatch> add_window(CommittedWorkload& workload,
                                                  u64 record_count,
                                                  u64 window_id,
                                                  u32 router_count = 4,
                                                  u64 seed = 42) {
  auto next = make_committed_workload(record_count, router_count, window_id,
                                      seed);
  // Republish next window's commitments onto the original board.
  for (u32 r = 0; r < router_count; ++r) {
    auto key = crypto::schnorr_keygen_from_seed(
        "bench-router-" + std::to_string(seed) + "-" + std::to_string(r));
    auto commitment =
        core::make_commitment(next.batches[r], key, window_id * 5000);
    if (!commitment.ok() ||
        !workload.board->publish(commitment.value()).ok()) {
      std::abort();
    }
  }
  return std::move(next.batches);
}

/// The entry counts of the paper's Figure 4 / Table 1 sweeps.
inline const std::vector<u64>& paper_sweep() {
  static const std::vector<u64> sweep = {50, 100, 500, 1000, 2000, 3000};
  return sweep;
}

/// Write the process-wide obs snapshot as BENCH_<name>.metrics.json in the
/// working directory. Every bench calls this before exiting, so all BENCH_*
/// trajectories share one schema (docs/OBSERVABILITY.md): prover segment
/// timings, aggregation round latency histograms, per-shard wall times, etc.
inline void write_metrics_snapshot(const std::string& bench_name) {
  const std::string path = "BENCH_" + bench_name + ".metrics.json";
  std::ofstream out(path);
  out << obs::Registry::instance().snapshot().to_json();
  if (out) {
    std::printf("\nmetrics snapshot -> %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

}  // namespace zkt::bench
