// §7 "Specialization proof systems" ablation, in google-benchmark form.
//
// The paper observes that aggregating 3000 NetFlow records into a depth-11
// Merkle tree costs ~35,000 hashes, and that a specialized prover doing
// 600k hashes/s would beat the 87-minute zkVM time by orders of magnitude.
// These benchmarks measure our native SHA-256 rate, the zkVM's traced-hash
// rate (trace recording + commitment overhead), and Merkle build costs, and
// print the paper's hash-count accounting as counters.
// The SHA-256 backend sweep at the bottom measures the batched hashing layer
// (crypto/sha256_backend.h) under every compiled backend and writes a
// machine-readable BENCH_hash.json so CI can track per-backend throughput
// and the speedup over the portable scalar code.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/zkt.h"
#include "crypto/sha256_backend.h"

using namespace zkt;

namespace {

void BM_Sha256Native(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  Bytes data(size, 0xA7);
  for (auto _ : state) {
    auto digest = crypto::sha256(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(size));
  state.counters["hashes/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(crypto::sha256_compression_count(size)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Sha256Native)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha256Traced(benchmark::State& state) {
  // The same hash executed as provable zkVM work (trace rows recorded).
  const size_t size = static_cast<size_t>(state.range(0));
  Bytes data(size, 0xA7);
  for (auto _ : state) {
    zvm::Env env({}, {});
    auto digest = env.sha256(data);
    benchmark::DoNotOptimize(digest);
    benchmark::DoNotOptimize(env.cycles());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(size));
}
BENCHMARK(BM_Sha256Traced)->Arg(64)->Arg(1024)->Arg(65536);

void BM_MerkleBuild(benchmark::State& state) {
  const u64 leaves = static_cast<u64>(state.range(0));
  std::vector<crypto::Digest32> leaf_digests;
  leaf_digests.reserve(leaves);
  for (u64 i = 0; i < leaves; ++i) {
    leaf_digests.push_back(crypto::sha256(as_bytes_view(i)));
  }
  for (auto _ : state) {
    crypto::MerkleTree tree(leaf_digests);
    benchmark::DoNotOptimize(tree.root());
  }
  // The paper's accounting: hashes needed for the tree build.
  state.counters["node_hashes"] = static_cast<double>(
      crypto::MerkleTree::build_hash_count(leaves));
}
BENCHMARK(BM_MerkleBuild)->Arg(50)->Arg(500)->Arg(3000);

void BM_MerkleUpdateLeaf(benchmark::State& state) {
  const u64 leaves = static_cast<u64>(state.range(0));
  std::vector<crypto::Digest32> leaf_digests;
  for (u64 i = 0; i < leaves; ++i) {
    leaf_digests.push_back(crypto::sha256(as_bytes_view(i)));
  }
  crypto::MerkleTree tree(leaf_digests);
  u64 i = 0;
  for (auto _ : state) {
    tree.update_leaf(i % leaves, crypto::sha256(as_bytes_view(i)));
    ++i;
  }
  benchmark::DoNotOptimize(tree.root());
}
BENCHMARK(BM_MerkleUpdateLeaf)->Arg(3000)->Arg(65536);

void BM_MerkleProveVerify(benchmark::State& state) {
  const u64 leaves = static_cast<u64>(state.range(0));
  std::vector<crypto::Digest32> leaf_digests;
  for (u64 i = 0; i < leaves; ++i) {
    leaf_digests.push_back(crypto::sha256(as_bytes_view(i)));
  }
  crypto::MerkleTree tree(leaf_digests);
  const auto root = tree.root();
  u64 i = 0;
  for (auto _ : state) {
    const u64 index = i++ % leaves;
    auto proof = tree.prove(index);
    auto status = crypto::MerkleTree::verify(root, tree.leaf(index), proof);
    if (!status.ok()) state.SkipWithError("proof failed");
  }
}
BENCHMARK(BM_MerkleProveVerify)->Arg(3000);

// The paper's headline accounting, printed as a standalone comparison: in-
// trace hash cost of a 3000-entry aggregation vs a specialized 600k-hash/s
// prover.
void BM_PaperHashAccounting(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::MerkleTree::build_hash_count(3000));
  }
  // Paper accounting: a depth-11 tree over 3000 records needs ~35,000 hashes
  // (per-record Merkle path verification dominates: records × depth). Ours:
  const double depth = 12.0;  // bit_ceil(3000) = 4096
  const double path_hashes = 3000.0 * depth;         // Algorithm 1 line 16
  const double tree_hashes =
      static_cast<double>(crypto::MerkleTree::build_hash_count(3000));
  const double record_hashes = 3000.0 * 2.0;  // commitment re-hash of entries
  const double total = path_hashes + tree_hashes + record_hashes;
  state.counters["hashes_for_3000_entries"] = total;
  state.counters["paper_estimate"] = 35'000.0;
  state.counters["starkware_secs_at_600k_per_s"] = total / 600'000.0;
}
BENCHMARK(BM_PaperHashAccounting)->Iterations(1);

// Batched leaf hashing under a pinned backend (arg = Sha256Backend value).
// Unavailable backends are skipped so the suite runs on any x86-64 (or with
// ZKT_SIMD=OFF, where only scalar exists).
void BM_HashLeavesBackend(benchmark::State& state) {
  const auto backend = static_cast<crypto::Sha256Backend>(state.range(0));
  if (!crypto::sha256_force_backend(backend)) {
    state.SkipWithError("backend unavailable on this CPU/build");
    return;
  }
  constexpr size_t kLeaves = 4096;
  constexpr size_t kLeafBytes = 80;  // typical serialized trace row
  Bytes data(kLeaves * kLeafBytes, 0xA7);
  std::vector<BytesView> views;
  views.reserve(kLeaves);
  for (size_t i = 0; i < kLeaves; ++i) {
    views.emplace_back(data.data() + i * kLeafBytes, kLeafBytes);
  }
  for (auto _ : state) {
    auto digests = crypto::MerkleTree::hash_leaves(views);
    benchmark::DoNotOptimize(digests.data());
  }
  crypto::sha256_force_backend(std::nullopt);
  const double blocks_per_leaf = static_cast<double>(
      crypto::sha256_compression_count(kLeafBytes + 1));  // +1 domain tag
  state.counters["blocks/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kLeaves * blocks_per_leaf,
      benchmark::Counter::kIsRate);
  state.SetLabel(crypto::sha256_backend_name(backend));
}
BENCHMARK(BM_HashLeavesBackend)
    ->Arg(static_cast<int>(crypto::Sha256Backend::scalar))
    ->Arg(static_cast<int>(crypto::Sha256Backend::shani))
    ->Arg(static_cast<int>(crypto::Sha256Backend::avx2));

// ---------------------------------------------------------------------------
// Backend sweep -> BENCH_hash.json
// ---------------------------------------------------------------------------

struct BackendResult {
  crypto::Sha256Backend backend;
  bool compiled = false;
  bool available = false;
  double leaf_blocks_per_s = 0;
  double pair_blocks_per_s = 0;
  bool digests_match_scalar = false;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Measure batched leaf + pair hashing under `backend` (must already be
/// forced). Returns {leaf blocks/s, pair blocks/s, final pair digest}.
void measure_backend(BackendResult& out, crypto::Digest32* pair_digest) {
  constexpr size_t kLeaves = 8192;
  constexpr size_t kLeafBytes = 80;
  constexpr double kMinSeconds = 0.25;

  Bytes data(kLeaves * kLeafBytes, 0xA7);
  std::vector<BytesView> views;
  views.reserve(kLeaves);
  for (size_t i = 0; i < kLeaves; ++i) {
    views.emplace_back(data.data() + i * kLeafBytes, kLeafBytes);
    data[i * kLeafBytes] = static_cast<u8>(i);  // distinct leaves
  }
  const double blocks_per_leaf = static_cast<double>(
      crypto::sha256_compression_count(kLeafBytes + 1));

  std::vector<crypto::Digest32> digests;
  u64 leaf_iters = 0;
  auto t0 = std::chrono::steady_clock::now();
  do {
    digests = crypto::MerkleTree::hash_leaves(views);
    ++leaf_iters;
  } while (seconds_since(t0) < kMinSeconds);
  out.leaf_blocks_per_s = static_cast<double>(leaf_iters) * kLeaves *
                          blocks_per_leaf / seconds_since(t0);

  std::vector<crypto::Digest32> pairs(digests.size() / 2);
  u64 pair_iters = 0;
  t0 = std::chrono::steady_clock::now();
  do {
    crypto::MerkleTree::hash_pairs(digests, pairs);
    ++pair_iters;
  } while (seconds_since(t0) < kMinSeconds);
  // Node message = 65 bytes = 2 compression blocks.
  out.pair_blocks_per_s = static_cast<double>(pair_iters) * pairs.size() *
                          2.0 / seconds_since(t0);
  *pair_digest = pairs.empty() ? crypto::Digest32{} : pairs[0];
}

void run_backend_sweep() {
  std::printf("\n--- SHA-256 backend sweep (batched leaf/pair hashing) ---\n");
  constexpr crypto::Sha256Backend kBackends[] = {
      crypto::Sha256Backend::scalar, crypto::Sha256Backend::shani,
      crypto::Sha256Backend::avx2};

  std::vector<BackendResult> results;
  crypto::Digest32 scalar_digest{};
  for (auto backend : kBackends) {
    BackendResult r;
    r.backend = backend;
    r.compiled = crypto::sha256_backend_compiled(backend);
    r.available = crypto::sha256_backend_available(backend);
    if (r.available && crypto::sha256_force_backend(backend)) {
      crypto::Digest32 pair_digest{};
      measure_backend(r, &pair_digest);
      crypto::sha256_force_backend(std::nullopt);
      if (backend == crypto::Sha256Backend::scalar) {
        scalar_digest = pair_digest;
        r.digests_match_scalar = true;
      } else {
        r.digests_match_scalar =
            std::equal(pair_digest.bytes.begin(), pair_digest.bytes.end(),
                       scalar_digest.bytes.begin());
      }
    }
    results.push_back(r);
  }

  const double scalar_leaf = results[0].leaf_blocks_per_s;
  for (const auto& r : results) {
    if (!r.available) {
      std::printf("%-8s unavailable (compiled=%d)\n",
                  crypto::sha256_backend_name(r.backend), r.compiled);
      continue;
    }
    std::printf("%-8s leaf %10.0f blocks/s  pair %10.0f blocks/s  "
                "speedup %.2fx  digests %s\n",
                crypto::sha256_backend_name(r.backend), r.leaf_blocks_per_s,
                r.pair_blocks_per_s,
                scalar_leaf > 0 ? r.leaf_blocks_per_s / scalar_leaf : 0.0,
                r.digests_match_scalar ? "ok" : "MISMATCH");
  }

  std::ofstream out("BENCH_hash.json");
  out << "{\n  \"active_backend\": \""
      << crypto::sha256_backend_name(crypto::sha256_active_backend())
      << "\",\n  \"backends\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"name\": \"" << crypto::sha256_backend_name(r.backend)
        << "\", \"compiled\": " << (r.compiled ? "true" : "false")
        << ", \"available\": " << (r.available ? "true" : "false")
        << ", \"leaf_blocks_per_s\": " << r.leaf_blocks_per_s
        << ", \"pair_blocks_per_s\": " << r.pair_blocks_per_s
        << ", \"speedup_vs_scalar\": "
        << (scalar_leaf > 0 ? r.leaf_blocks_per_s / scalar_leaf : 0.0)
        << ", \"digests_match_scalar\": "
        << (r.digests_match_scalar ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (out) {
    std::printf("backend sweep -> BENCH_hash.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_hash.json\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_backend_sweep();
  return 0;
}
