// The four workloads and the plain-chain machinery two of them share.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/pipeline.h"
#include "core/zkt.h"
#include "sim/simulator.h"

namespace perfbench {

using zkt::netflow::FlowKey;
using zkt::netflow::PacketObservation;

void run_paper_window(Run& run);
void run_steady_delta(Run& run);
void run_sharded_fold(Run& run);
void run_cold_audit(Run& run);
/// Checks of the benchmark's own arithmetic; returns the number of misses.
int run_selftest();

/// Commitment window length, as in the paper (§6).
inline constexpr u64 kWindowMs = 5'000;
/// Windows whose per-round fingerprints the exact-repeat check compares.
inline constexpr u64 kRepeatWindows = 2;
/// Every this many windows the provider's retention runs (see retention()),
/// so memory and WAL size stay bounded however many windows a run reaches
/// and peak RSS does not depend on the host's speed.
inline constexpr u64 kRetentionEvery = 16;

/// Empty `dir` (created if missing) and open a WAL-backed store in it;
/// throws std::runtime_error when the store cannot be opened.
std::unique_ptr<zkt::store::LogStore> fresh_store(const std::string& dir);

/// One packet for every flow in [0, flows) inside window `window`: the
/// paper's fixed flow set, so every window touches the same CLog entries.
std::vector<PacketObservation> fixed_flow_window(u64 seed, u64 flows,
                                                 u64 window);

/// SUM(hop_sum) WHERE src_ip = key.src_ip AND dst_ip = key.dst_ip.
zkt::core::Query hop_query(const FlowKey& key);

/// The benchmark's own reference for the workloads' query answers, built
/// from the packets it generated (each packet is metered by every router on
/// its path, so it counts path-length times).
class Reference {
 public:
  void add(const std::vector<PacketObservation>& packets, u32 path_length);
  u64 hop_sum(zkt::u32 src_ip, zkt::u32 dst_ip) const;
  u64 packets(const FlowKey& key) const;
  u64 flows() const { return packets_.size(); }
  const std::unordered_map<FlowKey, u64, zkt::netflow::FlowKeyHasher>&
  flow_packets() const {
    return packets_;
  }

 private:
  std::unordered_map<u64, u64> hop_sums_;  // (src << 32 | dst) -> sum
  std::unordered_map<FlowKey, u64, zkt::netflow::FlowKeyHasher> packets_;
};

/// "<size>:<sha256 hex>" of serialized bytes, and of a receipt's.
std::string bytes_print(const zkt::Bytes& bytes);
std::string receipt_print(const zkt::zvm::Receipt& receipt);

/// The plain (single-chain) stack a window runs through: routers -> store
/// -> ProviderPipeline -> Auditor, with a QueryService on the pipeline.
struct PlainWorld {
  PlainWorld(const std::string& dir, zkt::core::PipelineOptions options);

  std::unique_ptr<zkt::store::LogStore> store;
  std::unique_ptr<zkt::core::CommitmentBoard> board;
  std::unique_ptr<zkt::sim::NetFlowSimulator> sim;
  std::unique_ptr<zkt::core::ProviderPipeline> pipeline;
  std::unique_ptr<zkt::core::Auditor> auditor;
  zkt::core::QueryService queries;
  Reference reference;
};

/// Commit `packets` through the routers, aggregate the pending window and
/// have the auditor accept it. Records window latency, the accept time (for
/// audit_rounds_per_s) and every per-layer value of the round; appends the
/// round's fingerprint while fewer than kRepeatWindows are held. False when
/// the chain could not advance.
bool plain_window(Run& run, PlainWorld& world, u64 window,
                  std::vector<PacketObservation> packets);

/// After window `window`, when it is due (every kRetentionEvery windows):
/// drop the raw logs of aggregated windows (ProviderPipeline::
/// prune_aggregated, the paper's retention model), drop the `state_table`
/// chain snapshots of earlier windows, and checkpoint the store. The
/// commitments and receipts stay. Timed as store.retention_ms.
void retention(Run& run, zkt::store::LogStore& store,
               zkt::core::ProviderPipeline& pipeline,
               std::string_view state_table, u64 window);

/// A tampered copy of committed window `window` (one record's packet
/// counter inflated, the bench_tamper shape) must fail proof generation,
/// while the untouched copy proves.
void tamper_check(Run& run, const zkt::core::CommitmentBoard& board,
                  const zkt::sim::NetFlowSimulator& sim, u64 window,
                  const zkt::core::AggregationOptions& options);

/// Commit a fresh window `window` (its raw logs are still in the store,
/// whatever retention dropped) and run tamper_check on it.
void tamper_fresh_window(Run& run, const zkt::core::CommitmentBoard& board,
                         zkt::sim::NetFlowSimulator& sim, u64 window,
                         const zkt::core::AggregationOptions& options);

/// Compare the main loop's fingerprints with a replay's, line by line.
void compare_fingerprints(Run& run, const std::vector<std::string>& replay,
                          std::string_view what);

}  // namespace perfbench
