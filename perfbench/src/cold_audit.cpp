// cold_audit: the verifier alone. Set-up proves a 32-round composite-seal
// chain (each receipt embeds its predecessor, so receipts grow along the
// chain) plus one composite receipt of every query kind, and writes the
// chain to a receipt file. Each pass is a fresh Auditor streaming the file
// through audit(ReceiptFileSource&) and then verifying every query receipt.
// No proving happens in the loop, so verifier cost shows only here.
#include "store/logstore.h"
#include "workloads.h"

namespace perfbench {

namespace core = zkt::core;
namespace zvm = zkt::zvm;

namespace {

constexpr u64 kRounds = 32;
constexpr u64 kFlows = 256;
constexpr u32 kPathLength = 2;

const char* const kKinds[] = {"complete", "selective", "sketch_heavy",
                              "sketch_card"};

struct AuditState {
  std::unique_ptr<PlainWorld> world;  // owns the board the chain commits to
  std::string chain_path;
  core::Query query;
  u64 expected_sum = 0;
  zkt::crypto::Digest32 head_root;
  u64 records = 0;
  u64 chain_bytes = 0;
  /// Query receipts in kKinds order.
  std::vector<zvm::Receipt> queries;
};

zvm::ProveOptions composite() {
  zvm::ProveOptions options;
  options.seal_kind = zvm::SealKind::composite;
  return options;
}

std::unique_ptr<AuditState> audit_setup(Run& run, const std::string& dir,
                                        std::string* print) {
  auto state = std::make_unique<AuditState>();
  core::PipelineOptions options;
  options.prove_options = composite();
  state->world = std::make_unique<PlainWorld>(dir, options);
  PlainWorld& world = *state->world;
  Run side(run.args);
  for (u64 window = 0; window < kRounds; ++window) {
    auto packets = fixed_flow_window(run.args.seed, kFlows, window);
    world.reference.add(packets, kPathLength);
    if (!plain_window(side, world, window, std::move(packets))) break;
  }
  state->records = side.e2e.records;
  state->chain_bytes = side.e2e.proof_bytes;
  state->chain_path = dir + "/chain.rcpt";
  side.checks.op(
      core::save_receipts(world.pipeline->receipts(), state->chain_path).ok(),
      "write the receipt chain file");
  state->head_root = world.auditor->current_root();

  const FlowKey key = zkt::sim::synth_flow_key(
      zkt::SplitMix64(run.args.seed).next() % kFlows, run.args.seed);
  state->query = hop_query(key);
  state->expected_sum = world.reference.hop_sum(key.src_ip, key.dst_ip);
  for (const auto mode : {core::QueryMode::complete, core::QueryMode::selective}) {
    core::QueryOptions query_options;
    query_options.mode = mode;
    query_options.prove_options_override = composite();
    auto response = world.queries.run(state->query, query_options);
    if (side.checks.op(response.ok(), "composite query proof")) {
      state->queries.push_back(std::move(response.value().receipt));
    }
  }
  const auto& aggregation = world.pipeline->aggregation();
  const auto& sketch = aggregation.sketch();
  auto heavy = core::prove_sketch_heavy(
      aggregation.last_receipt(), sketch,
      sketch.total() / sketch.params().heavy_capacity + 1, composite());
  if (side.checks.op(heavy.ok(), "composite heavy-hitters proof")) {
    state->queries.push_back(std::move(heavy.value().receipt));
  }
  auto card = core::prove_sketch_cardinality(aggregation.last_receipt(),
                                             sketch, composite());
  if (side.checks.op(card.ok(), "composite cardinality proof")) {
    state->queries.push_back(std::move(card.value().receipt));
  }
  run.checks.merge(side.checks);

  if (print != nullptr) {
    auto file = core::read_file(state->chain_path);
    *print = "chain " + (file.ok() ? zkt::crypto::sha256(file.value()).hex()
                                   : std::string("unreadable"));
    for (const auto& receipt : state->queries) {
      *print += " query " + receipt_print(receipt);
    }
  }
  return state;
}

/// Verify query receipt `kind` (index into kKinds) on an auditor that has
/// accepted the chain. Returns the proven SUM for the exact-query kinds.
zkt::Result<u64> verify_query_kind(core::Auditor& auditor,
                                   const zvm::Receipt& receipt, size_t kind,
                                   const core::Query& query) {
  switch (kind) {
    case 0:
    case 1: {
      auto journal = auditor.verify_query(receipt, {.expected_query = &query});
      if (!journal.ok()) return journal.error();
      return journal.value().result.value(query.agg);
    }
    case 2: {
      auto journal = auditor.verify_heavy_hitters(receipt);
      if (!journal.ok()) return journal.error();
      return journal.value().hits.size();
    }
    default: {
      auto journal = auditor.verify_cardinality(receipt);
      if (!journal.ok()) return journal.error();
      return journal.value().distinct_flows;
    }
  }
}

bool audit_pass(Run& run, const AuditState& state) {
  const auto start = Clock::now();
  core::Auditor auditor(*state.world->board);
  zvm::VerifyStats stats;
  auto source = core::ReceiptFileSource::open(state.chain_path);
  if (!run.checks.op(source.ok(), "open the receipt chain file")) return false;
  auto report = run.timed("core.auditor.audit_ms", [&] {
    return auditor.audit(source.value(), {.batch_size = 64, .stats = &stats});
  });
  const double audit_ms = ms_since(start);
  if (!run.checks.op(report.ok() && report.value().rounds == kRounds &&
                         auditor.current_root() == state.head_root,
                     "cold audit accepts every round")) {
    return false;
  }
  run.e2e.add_accepted(kRounds, audit_ms);
  run.ledger.add("zvm.verifier.receipts_verified",
                 static_cast<double>(stats.receipts));
  run.ledger.add("zvm.verifier.openings_checked",
                 static_cast<double>(stats.openings));
  run.ledger.add("zvm.verifier.assumptions_skipped_ratio",
                 stats.receipts == 0
                     ? 0
                     : static_cast<double>(stats.assumptions_skipped) /
                           static_cast<double>(stats.receipts));

  const auto queries_start = Clock::now();
  for (size_t k = 0; k < state.queries.size(); ++k) {
    const auto verify_start = Clock::now();
    auto answer =
        run.timed(std::string("core.auditor.query_verify_ms.") + kKinds[k],
                  [&] {
                    return verify_query_kind(auditor, state.queries[k], k,
                                             state.query);
                  });
    run.e2e.audit_query_ms.push_back(ms_since(verify_start));
    if (!run.checks.op(answer.ok(), std::string(kKinds[k]) + " verify")) {
      continue;
    }
    if (k < 2) {
      run.checks.op(answer.value() == state.expected_sum,
                    std::string(kKinds[k]) + " answer equals the reference");
    }
  }
  run.e2e.query_ms.push_back(ms_since(queries_start));
  run.add_window_ms(ms_since(start));
  run.e2e.records += state.records;
  return true;
}

/// The chain file with one byte flipped inside round `round`'s receipt and
/// that item's CRC recomputed, so only verification can catch it.
bool write_flipped_chain(const std::string& from, const std::string& to,
                         u64 round) {
  auto file = core::read_file(from);
  if (!file.ok()) return false;
  zkt::Bytes bytes = std::move(file.value());
  size_t pos = 0;
  const auto varint = [&]() -> u64 {
    u64 value = 0;
    for (u32 shift = 0; pos < bytes.size() && shift < 64; shift += 7) {
      const zkt::u8 c = bytes[pos++];
      value |= static_cast<u64>(c & 0x7f) << shift;
      if ((c & 0x80) == 0) break;
    }
    return value;
  };
  pos += varint();  // magic
  const u64 count = varint();
  for (u64 item = 0; item < count && pos < bytes.size(); ++item) {
    const u64 len = varint();
    if (pos + len + 4 > bytes.size()) return false;
    if (item == round) {
      bytes[pos + len / 2] ^= 0x01;
      const u32 crc = zkt::store::crc32(zkt::BytesView(&bytes[pos], len));
      for (int b = 0; b < 4; ++b) {
        bytes[pos + len + b] = static_cast<zkt::u8>(crc >> (8 * b));
      }
      return core::write_file(to, bytes).ok();
    }
    pos += len + 4;
  }
  return false;
}

void audit_post_checks(Run& run, const AuditState& state) {
  // The same file drained without verifying.
  for (int pass = 0; pass < 3; ++pass) {
    auto drain = core::ReceiptFileSource::open(state.chain_path);
    if (!run.checks.op(drain.ok(), "open the receipt chain file")) return;
    const u64 parsed = run.timed("core.io.parse_ms", [&] {
      u64 n = 0;
      for (;;) {
        auto next = drain.value().next();
        if (!next.ok() || !next.value().has_value()) break;
        ++n;
      }
      return n;
    });
    run.checks.op(parsed == kRounds, "receipt chain file drains fully");
  }

  // One flipped byte in round r must stop the audit exactly at round r.
  const u64 r = 1 + run.args.seed % (kRounds - 1);
  const std::string flipped = run.out_path("chain-flipped.rcpt");
  if (run.checks.op(write_flipped_chain(state.chain_path, flipped, r),
                    "write the flipped chain file")) {
    core::Auditor auditor(*state.world->board);
    auto source = core::ReceiptFileSource::open(flipped);
    const bool rejected =
        source.ok() &&
        !auditor.audit(source.value(), {.batch_size = 1}).ok() &&
        auditor.rounds_accepted() == r;
    run.checks.expect_reject(rejected, "flipped chain byte in round " +
                                           std::to_string(r));
  }

  // A query receipt checked against a query it does not prove.
  core::Auditor auditor(*state.world->board);
  auto source = core::ReceiptFileSource::open(state.chain_path);
  if (run.checks.op(source.ok() && auditor.audit(source.value()).ok(),
                    "cold audit for the wrong-query check")) {
    const core::Query wrong =
        hop_query(zkt::sim::synth_flow_key(kFlows, run.args.seed));
    auto journal =
        auditor.verify_query(state.queries.front(), {.expected_query = &wrong});
    run.checks.expect_reject(!journal.ok(),
                             "query receipt against the wrong query");
  }

  // A tampered copy of a committed window must fail to prove.
  core::AggregationOptions options;
  options.prove_options = composite();
  tamper_check(run, *state.world->board, *state.world->sim, 1, options);
}

}  // namespace

void run_cold_audit(Run& run) {
  const std::string dir = run.out_path("cold_audit");
  std::unique_ptr<AuditState> state;
  timed_setups(run, 3, [&] {
    state.reset();
    std::string print;
    state = audit_setup(run, dir, &print);
    return print;
  });
  run.e2e.proof_bytes = state->chain_bytes;
  run.e2e.proof_rounds = kRounds;
  run.checks.op(state->queries.size() == std::size(kKinds),
                "one query receipt of every kind");

  run.closed_loop(
      2, 3, ~0ULL, [](u64 i) { return i + 1; },
      [&](u64) { return audit_pass(run, *state); });

  audit_post_checks(run, *state);
}

}  // namespace perfbench
