// Plain single-chain windows (paper_window, steady_delta, and cold_audit's
// set-up) and the helpers every workload's checks share.
#include <filesystem>
#include <stdexcept>

#include "workloads.h"

namespace perfbench {

namespace core = zkt::core;
namespace zvm = zkt::zvm;

std::unique_ptr<zkt::store::LogStore> fresh_store(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto store = std::make_unique<zkt::store::LogStore>(
      zkt::store::StoreConfig{.wal_path = dir + "/store.wal"});
  if (const auto opened = store->recover(); !opened.ok()) {
    throw std::runtime_error("cannot open a store in " + dir + ": " +
                             opened.to_string());
  }
  return store;
}

std::vector<PacketObservation> fixed_flow_window(u64 seed, u64 flows,
                                                 u64 window) {
  zkt::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + window);
  std::vector<PacketObservation> packets;
  packets.reserve(flows);
  for (u64 i = 0; i < flows; ++i) {
    PacketObservation pkt;
    pkt.key = zkt::sim::synth_flow_key(i, seed);
    pkt.timestamp_ms = window * kWindowMs + i * (kWindowMs - 1) / flows;
    pkt.bytes = 64 + static_cast<u32>(rng.uniform(1400));
    pkt.tcp_flags = pkt.key.protocol == 6 ? 0x18 : 0;
    pkt.hop_count = static_cast<zkt::u8>(2 + rng.uniform(11));
    pkt.rtt_us = 5'000 + static_cast<u32>(rng.uniform(60'000));
    pkt.jitter_us = static_cast<u32>(rng.uniform(4'000));
    packets.push_back(pkt);
  }
  return packets;
}

core::Query hop_query(const FlowKey& key) {
  return core::Query::sum(core::QField::hop_sum)
      .and_where(core::QField::src_ip, core::CmpOp::eq, key.src_ip)
      .and_where(core::QField::dst_ip, core::CmpOp::eq, key.dst_ip);
}

void Reference::add(const std::vector<PacketObservation>& packets,
                    u32 path_length) {
  for (const auto& pkt : packets) {
    if (pkt.dropped) continue;
    hop_sums_[static_cast<u64>(pkt.key.src_ip) << 32 | pkt.key.dst_ip] +=
        static_cast<u64>(pkt.hop_count) * path_length;
    packets_[pkt.key] += path_length;
  }
}

u64 Reference::hop_sum(zkt::u32 src_ip, zkt::u32 dst_ip) const {
  auto it = hop_sums_.find(static_cast<u64>(src_ip) << 32 | dst_ip);
  return it == hop_sums_.end() ? 0 : it->second;
}

u64 Reference::packets(const FlowKey& key) const {
  auto it = packets_.find(key);
  return it == packets_.end() ? 0 : it->second;
}

std::string bytes_print(const zkt::Bytes& bytes) {
  return std::to_string(bytes.size()) + ":" + zkt::crypto::sha256(bytes).hex();
}

std::string receipt_print(const zvm::Receipt& receipt) {
  return bytes_print(receipt.to_bytes());
}

PlainWorld::PlainWorld(const std::string& dir,
                       core::PipelineOptions options)
    : store(fresh_store(dir)),
      board(std::make_unique<core::CommitmentBoard>()),
      sim(std::make_unique<zkt::sim::NetFlowSimulator>(
          zkt::sim::SimConfig{}, *store, *board)),
      pipeline(std::make_unique<core::ProviderPipeline>(*store, *board,
                                                         std::move(options))),
      auditor(std::make_unique<core::Auditor>(*board)),
      queries(pipeline->aggregation()) {}

bool plain_window(Run& run, PlainWorld& world, u64 window,
                  std::vector<PacketObservation> packets) {
  auto& obs = zkt::obs::Registry::instance();
  const auto before = obs.snapshot();
  const auto store_before = world.store->stats();
  const u64 sha_before = sha256_blocks_total();
  const u64 tasks_before = zkt::common::ThreadPool::shared().tasks_executed();
  const std::string w = " (window " + std::to_string(window) + ")";

  const auto start = Clock::now();
  const auto committed = run.timed(
      "sim.commit_ms", [&] { return world.sim->run(std::move(packets)); });
  if (!run.checks.op(committed.ok(), "router commit" + w)) return false;
  auto rounds = run.timed("core.pipeline.aggregate_ms",
                          [&] { return world.pipeline->aggregate_pending(); });
  if (!run.checks.op(rounds.ok() && rounds.value().size() == 1,
                     "aggregation round" + w)) {
    return false;
  }
  const core::AggregationRound& round = rounds.value().front().primary();
  const auto accept_start = Clock::now();
  const auto accepted = run.timed("core.auditor.accept_ms", [&] {
    return world.auditor->accept_round(round.receipt);
  });
  if (!run.checks.op(accepted.ok(), "auditor accept" + w)) return false;
  run.e2e.add_accepted(1, ms_since(accept_start));
  run.add_window_ms(ms_since(start));

  const auto after = obs.snapshot();
  const ObsDelta delta(before, after);
  const auto store_after = world.store->stats();
  const zvm::ProveInfo& info = round.prove_info;
  Ledger& l = run.ledger;
  l.add("zvm.prover.execute_ms", info.execute_ms);
  l.add("zvm.prover.commit_ms", info.commit_ms);
  l.add("zvm.prover.total_ms", info.total_ms);
  l.add("zvm.prover.cycles", static_cast<double>(info.cycles));
  l.add("zvm.prover.sha_rows", static_cast<double>(info.sha_rows));
  l.add("zvm.prover.weighted_cycles",
        static_cast<double>(info.weighted_cycles()));
  l.add("zvm.prover.segments", static_cast<double>(info.segments));
  l.add("crypto.sha256.blocks",
        static_cast<double>(sha256_blocks_total() - sha_before));
  const double round_ms = delta.hist_sum("core.agg.round_ms");
  const auto* aggregate_ms = l.find("core.pipeline.aggregate_ms");
  l.add("core.agg.round_ms", round_ms);
  l.add("core.agg.host_ms", round_ms - info.total_ms);
  l.add("core.pipeline.io_ms", aggregate_ms->back() - round_ms);
  const double touched = delta.hist_sum("core.agg.touched_entries");
  l.add("core.agg.touched_entries", touched);
  l.add("core.agg.resident_entries",
        static_cast<double>(accepted.value().new_entry_count));
  l.add("core.agg.delta_round",
        accepted.value().kind == core::RoundKind::incremental ? 1 : 0);
  l.add("store.wal_bytes",
        static_cast<double>(store_after.wal_bytes - store_before.wal_bytes));
  l.add("store.appends",
        static_cast<double>(store_after.appends - store_before.appends));
  const u64 records = delta.counter("sim.records_committed");
  l.add("sim.records", static_cast<double>(records));
  l.add("common.pool.tasks",
        static_cast<double>(
            zkt::common::ThreadPool::shared().tasks_executed() -
            tasks_before));
  l.add("common.pool.queue_depth", delta.gauge("common.pool.queue_depth"));

  const zkt::Bytes receipt_bytes = round.receipt.to_bytes();
  run.e2e.records += records;
  run.e2e.proof_bytes += receipt_bytes.size();
  ++run.e2e.proof_rounds;
  if (run.fingerprint.size() < kRepeatWindows) {
    run.fingerprint.push_back(
        "window " + std::to_string(window) + " cycles " +
        std::to_string(info.cycles) + " sha_rows " +
        std::to_string(info.sha_rows) + " touched " +
        std::to_string(static_cast<u64>(touched)) + " receipt " +
        bytes_print(receipt_bytes) +
        " root " + accepted.value().new_root.hex());
  }
  return true;
}

void tamper_check(Run& run, const core::CommitmentBoard& board,
                  const zkt::sim::NetFlowSimulator& sim, u64 window,
                  const core::AggregationOptions& options) {
  auto batches = sim.batches_for_window(window);
  if (!run.checks.op(batches.ok() && !batches.value().empty() &&
                         !batches.value()[0].records.empty(),
                     "load a committed window to tamper with")) {
    return;
  }
  // The untouched copy must prove, so the rejection below is the tamper's.
  core::AggregationService honest(board, options);
  run.checks.op(honest.aggregate(batches.value()).ok(),
                "untampered copy of the window proves");
  batches.value()[0].records[0].packets += 1;
  core::AggregationService service(board, options);
  auto round = service.aggregate(batches.value());
  run.checks.expect_reject(!round.ok(), "tampered window proved");
}

void retention(Run& run, zkt::store::LogStore& store,
               core::ProviderPipeline& pipeline, std::string_view state_table,
               u64 window) {
  if (window % kRetentionEvery != 0) return;
  const auto checkpointed = run.timed("store.retention_ms", [&] {
    pipeline.prune_aggregated();
    store.drop_rows(state_table, window - 1);
    return store.checkpoint();
  });
  run.checks.op(checkpointed.ok(), "store checkpoint");
}

void tamper_fresh_window(Run& run, const core::CommitmentBoard& board,
                         zkt::sim::NetFlowSimulator& sim, u64 window,
                         const core::AggregationOptions& options) {
  constexpr u64 kFlows = 256;
  const auto committed =
      sim.run(fixed_flow_window(run.args.seed, kFlows, window));
  if (!run.checks.op(committed.ok(), "commit a window to tamper with")) {
    return;
  }
  tamper_check(run, board, sim, window, options);
}

void compare_fingerprints(Run& run, const std::vector<std::string>& replay,
                          std::string_view what) {
  const size_t n = std::min(run.fingerprint.size(), replay.size());
  run.checks.op(n == kRepeatWindows,
                std::string("exact repeat: ") + std::string(what) +
                    " produced too few rounds");
  for (size_t i = 0; i < n; ++i) {
    run.checks.op(run.fingerprint[i] == replay[i],
                  std::string("exact repeat: ") + std::string(what) +
                      " differs: " + run.fingerprint[i] + " vs " + replay[i]);
  }
}

}  // namespace perfbench
