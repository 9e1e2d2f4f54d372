// paper_window: the paper's §6 shape. Four routers, path length 2, the same
// 3000 flows in every window (6000 records, 3000 CLog entries), guest
// pinned to Algorithm 1, and the paper's SUM(hop_sum) WHERE src, dst query
// proven selective and complete and verified by the auditor each window.
// The prover does most of the work here; the state is small, so store I/O
// is a minor share.
#include "workloads.h"

namespace perfbench {

namespace core = zkt::core;

namespace {

constexpr u64 kFlows = 3'000;
constexpr u32 kPathLength = 2;

core::PipelineOptions paper_options() {
  core::PipelineOptions options;
  options.agg_mode = core::AggMode::full;
  return options;
}

/// Fresh stack with the genesis window (window 0) proven and accepted.
std::unique_ptr<PlainWorld> paper_setup(Run& run, const std::string& dir,
                                        std::string* print) {
  auto world = std::make_unique<PlainWorld>(dir, paper_options());
  auto packets = fixed_flow_window(run.args.seed, kFlows, 0);
  world->reference.add(packets, kPathLength);
  Run side(run.args);
  plain_window(side, *world, 0, std::move(packets));
  run.checks.merge(side.checks);
  if (print != nullptr && !side.fingerprint.empty()) {
    *print = side.fingerprint.front();
  }
  return world;
}

u64 target_flow(u64 seed, u64 window) {
  return zkt::SplitMix64(seed ^ (window * 0xD1B54A32D192ED03ULL)).next() %
         kFlows;
}

bool paper_window_step(Run& run, PlainWorld& world, u64 window) {
  auto packets = fixed_flow_window(run.args.seed, kFlows, window);
  world.reference.add(packets, kPathLength);
  return plain_window(run, world, window, std::move(packets));
}

/// The window's query set: the same query proven selective and complete,
/// each verified against the accepted chain. Returns the complete receipt.
std::optional<zkt::zvm::Receipt> paper_queries(Run& run, PlainWorld& world,
                                               u64 window) {
  const FlowKey key =
      zkt::sim::synth_flow_key(target_flow(run.args.seed, window),
                               run.args.seed);
  const core::Query query = hop_query(key);
  const u64 expected = world.reference.hop_sum(key.src_ip, key.dst_ip);
  const std::string w = " (window " + std::to_string(window) + ")";

  std::optional<zkt::zvm::Receipt> complete_receipt;
  std::optional<u64> answers[2];
  const auto start = Clock::now();
  const std::pair<core::QueryMode, std::string> modes[] = {
      {core::QueryMode::selective, "selective"},
      {core::QueryMode::complete, "complete"}};
  for (int m = 0; m < 2; ++m) {
    const auto& [mode, kind] = modes[m];
    core::QueryOptions options;
    options.mode = mode;
    auto response = run.timed("core.query.prove_ms." + kind, [&] {
      return world.queries.run(query, options);
    });
    if (!run.checks.op(response.ok(), kind + " query proof" + w)) continue;
    run.ledger.add("core.query.cycles." + kind,
                   static_cast<double>(response.value().prove_info.cycles));
    run.ledger.add("core.query.sketch_served", 0);
    const auto verify_start = Clock::now();
    auto journal = run.timed("core.query.verify_ms." + kind, [&] {
      return world.auditor->verify_query(response.value().receipt,
                                         {.expected_query = &query});
    });
    run.e2e.audit_query_ms.push_back(ms_since(verify_start));
    if (!run.checks.op(journal.ok(), kind + " query verify" + w)) continue;
    answers[m] = journal.value().result.value(query.agg);
    run.checks.op(*answers[m] == expected,
                  kind + " answer equals the reference" + w);
    if (mode == core::QueryMode::complete) {
      complete_receipt = std::move(response.value().receipt);
    }
  }
  run.e2e.query_ms.push_back(ms_since(start));
  run.checks.op(answers[0].has_value() && answers[1].has_value() &&
                    *answers[0] == *answers[1],
                "selective and complete answers agree" + w);
  return complete_receipt;
}

}  // namespace

void run_paper_window(Run& run) {
  const std::string dir = run.out_path("paper_window");
  std::unique_ptr<PlainWorld> world;
  timed_setups(run, 3, [&] {
    world.reset();
    std::string print;
    world = paper_setup(run, dir, &print);
    return print;
  });

  std::optional<zkt::zvm::Receipt> last_complete;
  u64 last_window = 0;
  run.closed_loop(
      2, 3, ~0ULL, [](u64 i) { return i + 1; },
      [&](u64 i) {
        const u64 window = i + 1;
        if (!paper_window_step(run, *world, window)) return false;
        last_window = window;
        auto receipt = paper_queries(run, *world, window);
        if (receipt.has_value()) last_complete = std::move(receipt);
        retention(run, *world->store, *world->pipeline,
                  zkt::store::kTableChainState, window);
        return true;
      });

  // A query receipt checked against a query it does not prove.
  if (run.checks.op(last_complete.has_value(), "a complete query receipt")) {
    const FlowKey other = zkt::sim::synth_flow_key(kFlows, run.args.seed);
    const core::Query wrong = hop_query(other);
    auto journal = world->auditor->verify_query(*last_complete,
                                                {.expected_query = &wrong});
    run.checks.expect_reject(!journal.ok(),
                             "query receipt against the wrong query");
  }
  core::AggregationOptions tamper_options;
  tamper_options.mode = core::AggMode::full;
  tamper_fresh_window(run, *world->board, *world->sim, last_window + 1,
                      tamper_options);
  world.reset();

  // Exact repeat: a fresh stack replaying the first windows must produce
  // byte-identical rounds.
  Run replay(run.args);
  auto again = paper_setup(replay, dir, nullptr);
  for (u64 window = 1; window <= kRepeatWindows; ++window) {
    if (!paper_window_step(replay, *again, window)) break;
  }
  run.checks.merge(replay.checks);
  compare_fingerprints(run, replay.fingerprint, "paper_window replay");
}

}  // namespace perfbench
