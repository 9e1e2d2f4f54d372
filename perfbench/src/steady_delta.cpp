// steady_delta: a large resident state with small Zipf windows. Set-up
// loads 20k flows; one seeded Zipf(1.1) packet stream over those same flows
// is then cut into 5 s windows of about 2000 packets. auto_select proves
// each round with the delta guest (k touched entries << N), so traces are
// small and host-side state work, the O(N) chain snapshot and the WAL write
// carry a large share of the window. Each window proves and verifies one
// heavy-hitters query (threshold above the Space-Saving floor, so it is
// answered from the round sketch) and one cardinality query.
#include <set>

#include "sim/workload.h"
#include "workloads.h"

namespace perfbench {

namespace core = zkt::core;

namespace {

constexpr u64 kFlows = 20'000;
constexpr u64 kPacketsPerWindow = 2'000;
/// Windows generated up front; the loop stops here even if time remains.
constexpr u64 kMaxWindows = 400;
constexpr u32 kPathLength = 2;

struct DeltaState {
  std::unique_ptr<PlainWorld> world;
  /// Zipf packets of windows 1..kMaxWindows, index = window - 1.
  std::vector<std::vector<PacketObservation>> windows;
};

std::unique_ptr<DeltaState> delta_setup(Run& run, const std::string& dir,
                                        std::string* print) {
  auto state = std::make_unique<DeltaState>();
  state->world = std::make_unique<PlainWorld>(dir, core::PipelineOptions{});
  PlainWorld& world = *state->world;
  auto genesis = fixed_flow_window(run.args.seed, kFlows, 0);
  world.reference.add(genesis, kPathLength);
  Run side(run.args);
  plain_window(side, world, 0, std::move(genesis));
  run.checks.merge(side.checks);
  if (print != nullptr && !side.fingerprint.empty()) {
    *print = side.fingerprint.front();
  }

  zkt::sim::ZipfWorkloadConfig config;
  config.seed = run.args.seed;
  config.flow_count = kFlows;
  config.zipf_s = 1.1;
  config.start_ms = kWindowMs;
  config.duration_ms = kMaxWindows * kWindowMs;
  state->windows.resize(kMaxWindows);
  for (auto& pkt :
       zkt::sim::zipf_workload(config, kMaxWindows * kPacketsPerWindow)) {
    const u64 window = pkt.timestamp_ms / kWindowMs;
    if (window >= 1 && window <= kMaxWindows) {
      state->windows[window - 1].push_back(pkt);
    }
  }
  return state;
}

bool delta_step(Run& run, DeltaState& state, u64 window) {
  auto packets = state.windows[window - 1];
  state.world->reference.add(packets, kPathLength);
  return plain_window(run, *state.world, window, std::move(packets));
}

/// Heavy hitters and cardinality, both answered from the round sketch and
/// checked against the benchmark's exact per-flow counts.
void delta_queries(Run& run, PlainWorld& world, u64 window) {
  const std::string w = " (window " + std::to_string(window) + ")";
  const auto& sketch = world.pipeline->aggregation().sketch();
  const u64 threshold = sketch.total() / sketch.params().heavy_capacity + 1;
  const auto start = Clock::now();

  auto heavy = run.timed("core.query.prove_ms.sketch_heavy", [&] {
    return world.queries.heavy_hitters(threshold);
  });
  if (run.checks.op(heavy.ok() && heavy.value().used_sketch &&
                        heavy.value().sketch.has_value(),
                    "heavy hitters proven from the sketch" + w)) {
    const auto& response = *heavy.value().sketch;
    run.ledger.add("core.query.cycles.sketch_heavy",
                   static_cast<double>(response.prove_info.cycles));
    run.ledger.add("core.query.sketch_served", 1);
    const auto verify_start = Clock::now();
    auto journal = run.timed("core.query.verify_ms.sketch_heavy", [&] {
      return world.auditor->verify_heavy_hitters(response.receipt);
    });
    run.e2e.audit_query_ms.push_back(ms_since(verify_start));
    if (run.checks.op(journal.ok(), "heavy hitters verify" + w)) {
      std::set<FlowKey> reported;
      bool bounded = true;
      for (const auto& hit : journal.value().hits) {
        const u64 exact = world.reference.packets(hit.key);
        bounded = bounded && hit.count >= exact &&
                  hit.count - hit.error <= exact && hit.cms_estimate >= exact;
        reported.insert(hit.key);
      }
      run.checks.op(bounded, "every heavy hitter within its error bound" + w);
      bool complete = true;
      for (const auto& [key, exact] : world.reference.flow_packets()) {
        if (exact >= threshold && reported.count(key) == 0) complete = false;
      }
      run.checks.op(complete, "every flow above the threshold reported" + w);
    }
  }

  auto card = run.timed("core.query.prove_ms.sketch_card",
                        [&] { return world.queries.cardinality(); });
  if (run.checks.op(card.ok() && card.value().used_sketch &&
                        card.value().sketch.has_value(),
                    "cardinality proven from the sketch" + w)) {
    const auto& response = *card.value().sketch;
    run.ledger.add("core.query.cycles.sketch_card",
                   static_cast<double>(response.prove_info.cycles));
    run.ledger.add("core.query.sketch_served", 1);
    const auto verify_start = Clock::now();
    auto journal = run.timed("core.query.verify_ms.sketch_card", [&] {
      return world.auditor->verify_cardinality(response.receipt);
    });
    run.e2e.audit_query_ms.push_back(ms_since(verify_start));
    if (run.checks.op(journal.ok(), "cardinality verify" + w)) {
      run.checks.op(journal.value().distinct_flows ==
                            world.reference.flows() &&
                        journal.value().cms_lower_bound <=
                            journal.value().distinct_flows,
                    "cardinality equals the reference flow count" + w);
    }
  }
  run.e2e.query_ms.push_back(ms_since(start));
}

}  // namespace

void run_steady_delta(Run& run) {
  const std::string dir = run.out_path("steady_delta");
  std::unique_ptr<DeltaState> state;
  timed_setups(run, 3, [&] {
    state.reset();
    std::string print;
    state = delta_setup(run, dir, &print);
    return print;
  });

  u64 last_window = 0;
  run.closed_loop(
      4, 3, kMaxWindows, [](u64 i) { return i + 1; },
      [&](u64 i) {
        const u64 window = i + 1;
        if (!delta_step(run, *state, window)) return false;
        last_window = window;
        delta_queries(run, *state->world, window);
        PlainWorld& world = *state->world;
        retention(run, *world.store, *world.pipeline,
                  zkt::store::kTableChainState, window);
        return true;
      });

  tamper_fresh_window(run, *state->world->board, *state->world->sim,
                      last_window + 1, core::AggregationOptions{});
  state.reset();

  Run replay(run.args);
  auto again = delta_setup(replay, dir, nullptr);
  for (u64 window = 1; window <= kRepeatWindows; ++window) {
    if (!delta_step(replay, *again, window)) break;
  }
  run.checks.merge(replay.checks);
  compare_fingerprints(run, replay.fingerprint, "steady_delta replay");
}

}  // namespace perfbench
