// sharded_fold: the paper_window shape at 6000 flows (12000 records per
// window) through the sharded pipeline: K = 4 shard chains on the shared
// pool, split proofs, a fanout-2 join tree folding each round into one
// seal, and a depth-2 pipelined drain. Windows are committed in bursts of
// two so the pipeline has a next window to stage while one proves. The
// ShardedAuditor accepts every tree seal. Per window the SUM(hop_sum) query
// is proven complete on every shard chain and checked against the shard
// heads the burst's accepted seal binds; the shard answers must add up to
// the benchmark's reference.
#include "workloads.h"

namespace perfbench {

namespace core = zkt::core;
namespace zvm = zkt::zvm;

namespace {

constexpr u64 kFlows = 6'000;
constexpr u32 kPathLength = 2;
constexpr u32 kShards = 4;
constexpr u64 kBurst = 2;

core::PipelineOptions sharded_options(u32 depth) {
  core::PipelineOptions options;
  options.agg_mode = core::AggMode::full;
  options.sharded.shard_count = kShards;
  options.sharded.join_fanout = 2;
  options.sharded.pipeline_depth = depth;
  return options;
}

struct ShardedWorld {
  ShardedWorld(const std::string& dir, u32 depth)
      : store(fresh_store(dir)),
        board(std::make_unique<core::CommitmentBoard>()),
        sim(std::make_unique<zkt::sim::NetFlowSimulator>(
            zkt::sim::SimConfig{}, *store, *board)),
        pipeline(std::make_unique<core::ProviderPipeline>(
            *store, *board, sharded_options(depth))),
        auditor(std::make_unique<core::ShardedAuditor>(*board, kShards)) {}

  std::unique_ptr<zkt::store::LogStore> store;
  std::unique_ptr<core::CommitmentBoard> board;
  std::unique_ptr<zkt::sim::NetFlowSimulator> sim;
  std::unique_ptr<core::ProviderPipeline> pipeline;
  std::unique_ptr<core::ShardedAuditor> auditor;
  Reference reference;
  /// The last accepted round: the shard heads queries must bind.
  std::optional<core::RoundResult> head;
};

/// Commit windows [first, first + count) in one burst, drain the pipeline,
/// and accept every round's tree seal. Window latency runs from handing the
/// burst to the routers until that window's seal is accepted.
bool sharded_burst(Run& run, ShardedWorld& world, u64 first, u64 count) {
  std::vector<PacketObservation> packets;
  for (u64 w = first; w < first + count; ++w) {
    auto window = fixed_flow_window(run.args.seed, kFlows, w);
    packets.insert(packets.end(), window.begin(), window.end());
  }
  world.reference.add(packets, kPathLength);
  auto& obs = zkt::obs::Registry::instance();
  const auto before = obs.snapshot();
  const auto store_before = world.store->stats();
  const u64 sha_before = sha256_blocks_total();
  const u64 tasks_before = zkt::common::ThreadPool::shared().tasks_executed();
  const std::string w = " (windows " + std::to_string(first) + "+" +
                        std::to_string(count) + ")";

  const auto start = Clock::now();
  const auto committed = run.timed(
      "sim.commit_ms", [&] { return world.sim->run(std::move(packets)); });
  if (!run.checks.op(committed.ok(), "router commit" + w)) return false;
  auto rounds = run.timed("core.pipeline.aggregate_ms",
                          [&] { return world.pipeline->aggregate_pending(); });
  if (!run.checks.op(rounds.ok() && rounds.value().size() == count,
                     "sharded rounds" + w)) {
    return false;
  }
  for (auto& round : rounds.value()) {
    const auto accept_start = Clock::now();
    const auto accepted = run.timed("core.auditor.accept_ms", [&] {
      return world.auditor->accept_round(round);
    });
    if (!run.checks.op(round.tree_seal.has_value() && accepted.ok(),
                       "tree seal accepted" + w)) {
      return false;
    }
    run.e2e.add_accepted(1, ms_since(accept_start));
    run.add_window_ms(ms_since(start));
  }

  const auto after = obs.snapshot();
  const ObsDelta delta(before, after);
  const auto store_after = world.store->stats();
  const double n = static_cast<double>(count);
  Ledger& l = run.ledger;
  for (const auto& round : rounds.value()) {
    zvm::ProveInfo sum;
    std::string shards;
    for (const auto& shard : round.shard_rounds) {
      const zvm::ProveInfo& info = shard.prove_info;
      sum.cycles += info.cycles;
      sum.sha_rows += info.sha_rows;
      sum.segments += info.segments;
      sum.execute_ms += info.execute_ms;
      sum.commit_ms += info.commit_ms;
      sum.total_ms += info.total_ms;
      shards += " shard " + std::to_string(info.cycles) + "/" +
                std::to_string(info.sha_rows) + "/" +
                receipt_print(shard.receipt);
    }
    // Summed over the shard chains of the window.
    l.add("zvm.prover.execute_ms", sum.execute_ms);
    l.add("zvm.prover.commit_ms", sum.commit_ms);
    l.add("zvm.prover.total_ms", sum.total_ms);
    l.add("zvm.prover.cycles", static_cast<double>(sum.cycles));
    l.add("zvm.prover.sha_rows", static_cast<double>(sum.sha_rows));
    l.add("zvm.prover.weighted_cycles",
          static_cast<double>(sum.weighted_cycles()));
    l.add("zvm.prover.segments", static_cast<double>(sum.segments));
    u64 bytes = round.tree_seal->to_bytes().size();
    for (const auto& split : round.split_receipts) {
      bytes += split.to_bytes().size();
    }
    run.e2e.proof_bytes += bytes;
    ++run.e2e.proof_rounds;
    if (run.fingerprint.size() < kRepeatWindows) {
      run.fingerprint.push_back("round " + std::to_string(round.round_id) +
                                shards + " seal " +
                                receipt_print(*round.tree_seal));
    }
  }
  world.head = std::move(rounds.value().back());

  l.add("crypto.sha256.blocks",
        static_cast<double>(sha256_blocks_total() - sha_before) / n);
  l.add("core.pipeline.stage_ms", delta.hist_sum("core.pipeline.stage_ms") / n);
  l.add("core.pipeline.prove_ms", delta.hist_sum("core.pipeline.prove_ms") / n);
  l.add("core.pipeline.fold_wait_ms",
        delta.hist_sum("core.pipeline.fold_wait_ms") / n);
  l.add("core.tree.fold_ms", delta.hist_sum("core.tree.fold_ms") / n);
  l.add("core.sharded.imbalance", delta.gauge("core.sharded.imbalance"));
  l.add("store.wal_bytes",
        static_cast<double>(store_after.wal_bytes - store_before.wal_bytes) /
            n);
  l.add("store.appends",
        static_cast<double>(store_after.appends - store_before.appends) / n);
  const u64 records = delta.counter("sim.records_committed");
  l.add("sim.records", static_cast<double>(records) / n);
  l.add("common.pool.tasks",
        static_cast<double>(
            zkt::common::ThreadPool::shared().tasks_executed() -
            tasks_before) /
            n);
  l.add("common.pool.queue_depth", delta.gauge("common.pool.queue_depth"));
  run.e2e.records += records;
  return true;
}

/// Verifier side of a shard query: the receipt must verify against the
/// complete-scan image, prove exactly `query` over the whole shard state,
/// and target the shard chain head that the accepted tree seal binds.
zkt::Result<core::QueryJournal> verify_shard_query(
    const zvm::Receipt& receipt, const core::Query& query,
    const zvm::Receipt& shard_head) {
  zvm::Verifier verifier;
  ZKT_TRY(verifier.verify(receipt, core::guest_images().query));
  auto journal = core::QueryJournal::parse(receipt.journal);
  if (!journal.ok()) return journal.error();
  const core::QueryJournal& j = journal.value();
  if (j.agg_claim_digest != shard_head.claim.digest() ||
      j.query.digest() != query.digest() ||
      j.mode != core::QueryMode::complete ||
      j.result.scanned != j.entry_count) {
    return zkt::Error{zkt::Errc::proof_invalid,
                      "shard query does not bind the accepted shard head"};
  }
  return journal;
}

void sharded_query(Run& run, ShardedWorld& world, u64 window) {
  const FlowKey key = zkt::sim::synth_flow_key(
      zkt::SplitMix64(run.args.seed ^ (window * 0xD1B54A32D192ED03ULL))
              .next() %
          kFlows,
      run.args.seed);
  const core::Query query = hop_query(key);
  const core::RoundResult& head = *world.head;
  const auto* service = world.pipeline->sharded_service();
  const std::string w = " (window " + std::to_string(window) + ")";
  u64 total = 0;
  bool all = true;
  const auto start = Clock::now();
  for (u32 s = 0; s < kShards; ++s) {
    core::QueryService queries(service->shard_service(s));
    auto response = run.timed("core.query.prove_ms.complete",
                              [&] { return queries.run(query); });
    if (!run.checks.op(response.ok(), "shard query proof" + w)) {
      all = false;
      continue;
    }
    run.ledger.add("core.query.cycles.complete",
                   static_cast<double>(response.value().prove_info.cycles));
    run.ledger.add("core.query.sketch_served", 0);
    const auto verify_start = Clock::now();
    auto journal = run.timed("core.query.verify_ms.complete", [&] {
      return verify_shard_query(response.value().receipt, query,
                                head.shard_rounds[s].receipt);
    });
    run.e2e.audit_query_ms.push_back(ms_since(verify_start));
    if (!run.checks.op(journal.ok(), "shard query verify" + w)) {
      all = false;
      continue;
    }
    total += journal.value().result.value(query.agg);
  }
  run.e2e.query_ms.push_back(ms_since(start));
  run.checks.op(all && total == world.reference.hop_sum(key.src_ip,
                                                        key.dst_ip),
                "shard answers add up to the reference" + w);
}

/// Fresh world at `depth` with the genesis window proven and accepted.
std::unique_ptr<ShardedWorld> sharded_setup(Run& run, const std::string& dir,
                                            u32 depth, std::string* print) {
  auto world = std::make_unique<ShardedWorld>(dir, depth);
  Run side(run.args);
  sharded_burst(side, *world, 0, 1);
  run.checks.merge(side.checks);
  if (print != nullptr && !side.fingerprint.empty()) {
    *print = side.fingerprint.front();
  }
  return world;
}

}  // namespace

void run_sharded_fold(Run& run) {
  const std::string dir = run.out_path("sharded_fold");
  std::unique_ptr<ShardedWorld> world;
  timed_setups(run, 3, [&] {
    world.reset();
    std::string print;
    world = sharded_setup(run, dir, 2, &print);
    return print;
  });

  u64 last_window = 0;
  run.closed_loop(
      1, 2, ~0ULL, [](u64 i) { return 1 + i * kBurst; },
      [&](u64 i) {
        const u64 first = 1 + i * kBurst;
        if (!sharded_burst(run, *world, first, kBurst)) return false;
        last_window = first + kBurst - 1;
        // One query set per window, both against the burst's accepted head.
        for (u64 w = first; w < first + kBurst; ++w) {
          sharded_query(run, *world, w);
        }
        retention(run, *world->store, *world->pipeline,
                  zkt::store::kTableShardState, last_window);
        return true;
      });

  core::AggregationOptions tamper_options;
  tamper_options.mode = core::AggMode::full;
  tamper_fresh_window(run, *world->board, *world->sim, last_window + 1,
                      tamper_options);
  world.reset();

  // Exact repeat across pipeline depths: depth 1 (the sequential loop) must
  // prove the first burst byte-identically to the depth-2 main loop.
  Run replay(run.args);
  auto again = sharded_setup(replay, dir, 1, nullptr);
  sharded_burst(replay, *again, 1, kBurst);
  run.checks.merge(replay.checks);
  compare_fingerprints(run, replay.fingerprint, "sharded_fold at depth 1");
}

}  // namespace perfbench
