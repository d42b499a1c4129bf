// google-benchmark timings of the crypto substrate: SHA-256 throughput
// (the dispatched kernel against the portable one), HMAC
// signing/verification, Merkle roots, and full transaction hashing — the
// operations whose real-world (ECDSA-era) costs the simulation's CostModel
// `sign`/`verify`/`hash_per_kb` knobs represent.

#include <benchmark/benchmark.h>

#include <vector>

#include "crypto/hmac.h"
#include "crypto/identity.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "proto/transaction.h"

namespace fabricpp::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

// One-shot SHA-256 of range(0) bytes on one compression kernel: whole
// blocks straight from the input, then the padded tail (one or two blocks).
void BM_Sha256Kernel(benchmark::State& state, bool dispatched) {
  const internal::CompressFn compress = dispatched
                                            ? internal::ActiveCompress()
                                            : &internal::CompressPortable;
  state.SetLabel(dispatched ? internal::ActiveKernelName() : "portable");
  const size_t size = static_cast<size_t>(state.range(0));
  const std::vector<uint8_t> data(size, 'x');
  const size_t whole = size / 64;
  std::vector<uint8_t> tail(data.begin() + whole * 64, data.end());
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  for (int i = 0; i < 8; ++i) {
    tail.push_back(static_cast<uint8_t>((uint64_t{size} * 8) >> (56 - 8 * i)));
  }
  for (auto _ : state) {
    uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                     0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    if (whole > 0) compress(h, data.data(), whole);
    compress(h, tail.data(), tail.size() / 64);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_Sha256Kernel, portable, false)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1500);
BENCHMARK_CAPTURE(BM_Sha256Kernel, dispatched, true)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1500);

void BM_HmacSign(benchmark::State& state) {
  const Identity identity(42, "A1");
  const std::string payload(static_cast<size_t>(state.range(0)), 'p');
  for (auto _ : state) {
    benchmark::DoNotOptimize(identity.Sign(payload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HmacSign)->Arg(256)->Arg(4096);

void BM_HmacVerify(benchmark::State& state) {
  const Identity identity(42, "A1");
  const std::string payload(512, 'p');
  const Signature signature = identity.Sign(payload);
  const Bytes message(payload.begin(), payload.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(identity.Verify(message, signature));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HmacVerify);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<Digest> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(Sha256::Hash("tx" + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleRoot(leaves));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// 256 leaves: the block size the benchmark workloads cut.
BENCHMARK(BM_MerkleRoot)->Arg(64)->Arg(256)->Arg(1024);

void BM_TransactionHash(benchmark::State& state) {
  proto::Transaction tx;
  tx.client = "client_c0_0";
  tx.channel = "ch0";
  tx.chaincode = "smallbank";
  tx.policy_id = "AND(all-orgs)";
  for (int i = 0; i < 8; ++i) {
    tx.rwset.reads.push_back(
        {"acc_" + std::to_string(i), proto::Version{3, 1}});
    tx.rwset.writes.push_back(
        {"acc_" + std::to_string(i), "123456", false});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.ContentDigest());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransactionHash);

}  // namespace
}  // namespace fabricpp::crypto

BENCHMARK_MAIN();
