#include "replay.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "chaincode/chaincode.h"
#include "checks.h"
#include "common/rng.h"
#include "common/strings.h"
#include "crypto/identity.h"
#include "fabric/metrics.h"
#include "ledger/ledger.h"
#include "node/mesh.h"
#include "ordering/batch_cutter.h"
#include "ordering/early_abort.h"
#include "ordering/reorderer.h"
#include "peer/endorser.h"
#include "peer/policy.h"
#include "peer/validator.h"
#include "proto/wire_format.h"
#include "raft/raft_node.h"
#include "runtime/thread_runtime.h"
#include "statedb/state_db.h"

namespace fabricpp::perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names: one per call into a module, plus the two roots.
enum SpanName : uint32_t {
  kBlockRoot,
  kTxRoot,
  kNextArgs,
  kEndorse,
  kSign,
  kMetricsFire,
  kCut,
  kSkew,
  kReorder,
  kSeal,
  kEncode,
  kDecode,
  kValidate,
  kVerify,
  kMetricsResolve,
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "replay.block",          "replay.tx",
    "workload.next_args",    "peer.endorse",
    "crypto.sign",           "fabric.metrics_fire",
    "ordering.cut",          "ordering.skew",
    "ordering.reorder",      "ordering.seal",
    "proto.block_encode",    "proto.block_decode",
    "peer.validate",         "crypto.verify",
    "fabric.metrics_resolve",
};

struct Span {
  uint32_t name;
  uint32_t parent;  ///< 1-based span id; 0 = root.
  uint64_t block;
  uint64_t tx;  ///< Proposal id, 0 for block-level spans.
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span recorder; written out once at the end.
class Tracer {
 public:
  uint32_t Begin(SpanName name, uint32_t parent, uint64_t block, uint64_t tx) {
    spans_.push_back(Span{name, parent, block, tx, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }

  template <typename Fn>
  auto Time(SpanName name, uint32_t parent, uint64_t block, uint64_t tx,
            Fn&& fn) {
    const uint32_t id = Begin(name, parent, block, tx);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      End(id);
    } else {
      auto result = fn();
      End(id);
      return result;
    }
  }

  /// Self time per span name (duration minus the children's durations),
  /// and the number of spans of each name.
  void SelfTimes(std::vector<double>* self_ns,
                 std::vector<uint64_t>* calls) const {
    self_ns->assign(kNumSpanNames, 0);
    calls->assign(kNumSpanNames, 0);
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      (*self_ns)[s.name] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
      ++(*calls)[s.name];
    }
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,name,block,tx,start_ns,end_ns\n");
    const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%u,%s,%llu,%llu,%lld,%lld\n", i + 1, s.parent,
                   kSpanNames[s.name], static_cast<unsigned long long>(s.block),
                   static_cast<unsigned long long>(s.tx),
                   static_cast<long long>(s.start_ns - base),
                   static_cast<long long>(s.end_ns - base));
    }
    return std::fclose(f) == 0;
  }

  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// The blocks proposed to a 3-replica Raft cluster on real threads: commit
/// time (propose on every replica -> first replica applies it) and Raft
/// messages per block. Payload = 8-byte sequence number + encoded block.
void ReplayRaft(const fabric::FabricConfig& config,
                const std::vector<Bytes>& frames, ReplayResult* out) {
  std::mutex mu;
  std::condition_variable cv;
  std::map<uint64_t, int64_t> committed_at;  // Guarded by mu.

  const auto payload_for = [](uint64_t seq, const Bytes& body) {
    Bytes payload(8 + body.size());
    for (int i = 0; i < 8; ++i) payload[i] = static_cast<uint8_t>(seq >> (8 * i));
    std::copy(body.begin(), body.end(), payload.begin() + 8);
    return payload;
  };
  const auto wait_for = [&](uint64_t seq, int64_t timeout_ms) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                [&]() { return committed_at.count(seq) != 0; });
    const auto it = committed_at.find(seq);
    return it == committed_at.end() ? std::optional<int64_t>()
                                    : std::optional<int64_t>(it->second);
  };

  runtime::ThreadRuntime rt(runtime::ThreadRuntime::Options{});
  std::vector<runtime::Endpoint*> endpoints;
  for (int i = 0; i < 3; ++i) {
    endpoints.push_back(&rt.AddEndpoint(StrFormat("replay-raft-%d", i)));
  }
  raft::RaftCluster cluster(&rt.transport(), endpoints, config.seed,
                            config.raft_params);
  cluster.SetCommitCallbackOnAll([&](uint64_t, const Bytes& payload) {
    if (payload.size() < 8) return;
    uint64_t seq = 0;
    for (int i = 0; i < 8; ++i) seq |= static_cast<uint64_t>(payload[i]) << (8 * i);
    const int64_t now = NowNs();
    {
      std::lock_guard<std::mutex> lock(mu);
      committed_at.emplace(seq, now);
    }
    cv.notify_all();
  });
  cluster.Start();

  // Sequence numbers above 2^62 probe for a leader: proposals to a cluster
  // still electing are ignored, so re-propose until one commits.
  constexpr uint64_t kProbe = 1ULL << 62;
  bool elected = false;
  for (uint64_t probe = kProbe; probe < kProbe + 250 && !elected; ++probe) {
    cluster.ProposeOnAll(payload_for(probe, {}));
    elected = wait_for(probe, 20).has_value();
  }
  double commit_ns = 0;
  uint64_t messages = 0;
  uint64_t blocks = 0;
  if (!elected) {
    out->errors.push_back("raft: no leader elected within 5 s");
  } else {
    for (uint64_t seq = 0; seq < frames.size(); ++seq) {
      const uint64_t sent_before = cluster.messages_sent();
      const int64_t start = NowNs();
      cluster.ProposeOnAll(payload_for(seq, frames[seq]));
      const std::optional<int64_t> at = wait_for(seq, 2000);
      if (!at.has_value()) {
        out->errors.push_back(
            StrFormat("raft: block %llu not committed within 2 s",
                      static_cast<unsigned long long>(seq)));
        break;
      }
      commit_ns += static_cast<double>(*at - start);
      messages += cluster.messages_sent() - sent_before;
      ++blocks;
    }
  }
  rt.Shutdown();  // Joins every replica thread before `cluster` dies.
  const double n = blocks == 0 ? 1 : static_cast<double>(blocks);
  out->metrics.push_back({"raft.commit_us_per_block", commit_ns / 1e3 / n, "us"});
  out->metrics.push_back(
      {"raft.messages_per_block", static_cast<double>(messages) / n, "msg"});
}

}  // namespace

ReplayResult RunReplay(const fabric::FabricConfig& config,
                       const workload::Workload& workload, uint32_t blocks,
                       const std::string& span_path) {
  ReplayResult out;
  Tracer tracer;

  // The network's pieces, built as the composition root builds them.
  const std::unique_ptr<chaincode::ChaincodeRegistry> registry =
      chaincode::ChaincodeRegistry::WithBuiltins();
  peer::PolicyRegistry policies;
  peer::EndorsementPolicy policy;
  policy.id = "AND(all-orgs)";
  std::vector<peer::Endorser> endorsers;
  std::vector<crypto::Identity> signers;
  std::vector<std::string> peer_names;
  for (uint32_t o = 0; o < config.num_orgs; ++o) {
    const std::string org(1, static_cast<char>('A' + o));
    policy.required_orgs.push_back(org);
    peer_names.push_back(org + "1");
    endorsers.emplace_back(peer_names.back(), org, config.seed,
                           registry.get());
    signers.emplace_back(config.seed, peer_names.back());
  }
  const std::string policy_id = policy.id;
  (void)policies.Register(std::move(policy));
  peer::Validator validator(config.seed, &policies);
  validator.PrewarmIdentities(peer_names);
  std::unordered_map<std::string, crypto::Identity> verifiers;
  for (const std::string& name : peer_names) {
    verifiers.emplace(name, crypto::Identity(config.seed, name));
  }

  statedb::StateDb db;
  workload.SeedState(&db);
  ledger::Ledger ledger;
  ordering::BatchCutter cutter(config.block);
  fabric::Metrics metrics;

  // Channel 0's client, with the RNG seed the network gives it.
  const std::string client = node::ClientNameFor(0, 0);
  Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 1);
  uint64_t next_proposal = 1;
  uint64_t next_number = 1;
  crypto::Digest prev_hash = ledger.LastHash();

  double verify_ns = 0, commit_ns = 0;
  uint64_t cycles = 0, reorder_passes = 0;
  uint64_t stored_bytes = 0, stored_txs = 0;
  std::vector<Bytes> frames;
  std::shared_ptr<proto::Block> pending;

  const auto error = [&out](std::string message) {
    if (out.errors.size() < 8) out.errors.push_back(std::move(message));
  };
  const auto resolve = [&](uint32_t parent, uint64_t block,
                           const proto::Transaction& tx, fabric::TxOutcome o) {
    tracer.Time(kMetricsResolve, parent, block, tx.proposal_id, [&]() {
      metrics.ResolveFired(fabric::ProposalKey(tx.client, tx.proposal_id), o,
                           static_cast<sim::SimTime>(NowNs() / 1000));
    });
  };

  const auto commit = [&](const proto::Block& block, uint32_t parent) {
    const uint64_t number = block.header.number;
    const peer::BlockValidationResult result = tracer.Time(
        kValidate, parent, number, 0,
        [&]() { return validator.ValidateAndCommit(block, &db, &ledger); });
    verify_ns += static_cast<double>(result.verify_wall_ns);
    commit_ns += static_cast<double>(result.commit_wall_ns);
    if (ledger.Height() != number + 1) {
      error(StrFormat("block %llu was not appended",
                      static_cast<unsigned long long>(number)));
      return;
    }
    for (size_t i = 0; i < block.transactions.size(); ++i) {
      const proto::Transaction& tx = block.transactions[i];
      const Bytes payload = tx.SignedPayload();
      for (const proto::Endorsement& e : tx.endorsements) {
        const auto it = verifiers.find(e.peer);
        const bool ok =
            it != verifiers.end() &&
            tracer.Time(kVerify, parent, number, tx.proposal_id, [&]() {
              return it->second.Verify(payload, e.signature);
            });
        if (!ok) error("endorsement of " + e.peer + " does not verify");
      }
      resolve(parent, number, tx,
              fabric::OutcomeFromValidationCode(result.codes[i]));
    }
    const ledger::StoredBlock* stored = ledger.GetBlock(number).value();
    stored_bytes += stored->block.Encode().size() +
                    stored->validation_codes.size();
    stored_txs += stored->block.transactions.size();
  };

  for (uint32_t b = 0; b < blocks; ++b) {
    const uint32_t root = tracer.Begin(kBlockRoot, 0, next_number, 0);
    // Simulation phase against the state from before the previous block
    // commits, until the cutter completes a batch.
    std::optional<ordering::Batch> batch;
    while (!batch.has_value()) {
      const uint64_t id = next_proposal++;
      const uint32_t txr = tracer.Begin(kTxRoot, root, next_number, id);
      proto::Proposal proposal;
      proposal.proposal_id = id;
      proposal.client = client;
      proposal.channel = "ch0";
      proposal.chaincode = workload.chaincode();
      proposal.args = tracer.Time(kNextArgs, txr, next_number, id, [&]() {
        return workload.NextArgsFor(0, rng);
      });
      proposal.nonce = rng.Next();
      tracer.Time(kMetricsFire, txr, next_number, id, [&]() {
        metrics.NoteFired(fabric::ProposalKey(client, id),
                          static_cast<sim::SimTime>(NowNs() / 1000));
      });
      ++out.transactions;

      std::vector<peer::EndorsementResponse> responses;
      for (size_t e = 0; e < endorsers.size(); ++e) {
        Result<peer::EndorsementResponse> response =
            tracer.Time(kEndorse, txr, next_number, id, [&]() {
              return endorsers[e].Endorse(proposal, policy_id, db,
                                          config.enable_early_abort_sim);
            });
        if (!response.ok()) {
          error("endorsement failed: " + response.status().ToString());
          break;
        }
        const Bytes signed_payload = peer::EndorsementPayload(
            proposal.channel, proposal.chaincode, policy_id, response->rwset);
        const crypto::Signature signature =
            tracer.Time(kSign, txr, next_number, id,
                        [&]() { return signers[e].Sign(signed_payload); });
        if (!(signature == response->endorsement.signature)) {
          error("re-signed endorsement differs from the endorser's");
        }
        responses.push_back(std::move(response).value());
      }
      bool consistent = responses.size() == endorsers.size();
      for (size_t e = 1; consistent && e < responses.size(); ++e) {
        consistent = responses[e].rwset == responses[0].rwset;
      }
      if (!consistent) {
        error("endorsers disagree on the read/write set");
        tracer.End(txr);
        continue;
      }
      proto::Transaction tx;
      tx.proposal_id = id;
      tx.client = client;
      tx.channel = proposal.channel;
      tx.chaincode = proposal.chaincode;
      tx.policy_id = policy_id;
      tx.rwset = responses[0].rwset;
      for (const auto& r : responses) tx.endorsements.push_back(r.endorsement);
      tx.ComputeTxId(proposal);
      batch = tracer.Time(kCut, txr, next_number, id,
                          [&]() { return cutter.Add(std::move(tx)); });
      tracer.End(txr);
    }

    if (pending != nullptr) commit(*pending, root);

    // Ordering: version-skew early abort, reordering, sealing.
    std::vector<proto::Transaction>& txs = batch->transactions;
    std::vector<bool> dropped(txs.size(), false);
    std::vector<const proto::ReadWriteSet*> rwsets;
    for (const proto::Transaction& tx : txs) rwsets.push_back(&tx.rwset);
    if (config.enable_early_abort_ordering) {
      const std::vector<uint32_t> victims = tracer.Time(
          kSkew, root, next_number, 0,
          [&]() { return ordering::FindVersionSkewAborts(rwsets); });
      for (const uint32_t v : victims) {
        dropped[v] = true;
        resolve(root, next_number, txs[v], fabric::TxOutcome::kAbortVersionSkew);
      }
    }
    std::vector<uint32_t> survivors;
    std::vector<const proto::ReadWriteSet*> survivor_rwsets;
    for (uint32_t i = 0; i < txs.size(); ++i) {
      if (dropped[i]) continue;
      survivors.push_back(i);
      survivor_rwsets.push_back(&txs[i].rwset);
    }
    std::vector<uint32_t> order = survivors;
    if (config.enable_reordering && !survivors.empty()) {
      const ordering::ReorderResult reorder =
          tracer.Time(kReorder, root, next_number, 0, [&]() {
            return ordering::ReorderTransactions(survivor_rwsets,
                                                 config.reorder);
          });
      cycles += reorder.stats.num_cycles_found;
      ++reorder_passes;
      for (const uint32_t v : reorder.aborted) {
        resolve(root, next_number, txs[survivors[v]],
                fabric::TxOutcome::kAbortReorderer);
      }
      order.clear();
      for (const uint32_t pos : reorder.order) order.push_back(survivors[pos]);
    }
    if (order.empty()) {
      tracer.End(root);
      continue;
    }
    auto block = std::make_shared<proto::Block>();
    tracer.Time(kSeal, root, next_number, 0, [&]() {
      for (const uint32_t i : order) {
        block->transactions.push_back(std::move(txs[i]));
      }
      block->header.number = next_number++;
      block->header.previous_hash = prev_hash;
      block->SealDataHash();
      prev_hash = block->header.Hash();
    });

    // Wire: the orderer -> peer block message, framed and decoded back.
    const uint64_t number = block->header.number;
    proto::BlockMsg msg{0, *block};
    Bytes frame = tracer.Time(kEncode, root, number, 0, [&]() {
      return proto::EncodeFrame(proto::WireMessageType::kBlock, msg.Encode());
    });
    Result<proto::BlockMsg> decoded =
        tracer.Time(kDecode, root, number, 0, [&]() -> Result<proto::BlockMsg> {
          proto::FrameDecoder decoder(config.socket_max_frame_bytes);
          decoder.Feed(frame.data(), frame.size());
          proto::Frame f;
          Result<bool> got = decoder.Next(&f);
          if (!got.ok()) return got.status();
          if (!*got) return Status::InvalidArgument("incomplete frame");
          ByteReader reader(f.payload);
          return proto::BlockMsg::Decode(&reader);
        });
    if (!decoded.ok()) {
      error("block decode: " + decoded.status().ToString());
      tracer.End(root);
      break;
    }
    pending = std::make_shared<proto::Block>(std::move(decoded->block));
    frames.push_back(std::move(frame));
    tracer.End(root);
  }
  if (pending != nullptr) {
    const uint32_t root = tracer.Begin(kBlockRoot, 0, next_number, 0);
    commit(*pending, root);
    tracer.End(root);
  }

  std::vector<double> self_ns;
  std::vector<uint64_t> calls;
  tracer.SelfTimes(&self_ns, &calls);
  const auto per_call_us = [&](SpanName name) {
    return calls[name] == 0 ? 0.0 : self_ns[name] / 1e3 / calls[name];
  };
  const double n_blocks = static_cast<double>(calls[kValidate]);
  const double proposals = static_cast<double>(out.transactions);
  out.metrics = {
      {"workload.next_args_us", per_call_us(kNextArgs), "us"},
      {"peer.endorse_us", per_call_us(kEndorse), "us"},
      {"crypto.sign_us", per_call_us(kSign), "us"},
      {"crypto.verify_us", per_call_us(kVerify), "us"},
      {"peer.verify_us", n_blocks > 0 ? verify_ns / 1e3 / n_blocks : 0, "us"},
      {"peer.commit_us", n_blocks > 0 ? commit_ns / 1e3 / n_blocks : 0, "us"},
      {"ordering.cut_us", per_call_us(kCut), "us"},
      {"ordering.reorder_us", per_call_us(kReorder), "us"},
      {"ordering.cycles_per_block",
       reorder_passes == 0 ? 0
                           : static_cast<double>(cycles) / reorder_passes,
       "cycles"},
      {"proto.block_encode_us", per_call_us(kEncode), "us"},
      {"proto.block_decode_us", per_call_us(kDecode), "us"},
      {"ledger.bytes_per_tx",
       stored_txs == 0 ? 0 : static_cast<double>(stored_bytes) / stored_txs,
       "B"},
      {"fabric.metrics_us_per_tx",
       proposals > 0
           ? (self_ns[kMetricsFire] + self_ns[kMetricsResolve]) / 1e3 /
                 proposals
           : 0,
       "us"},
  };
  if (metrics.unresolved_fired() != 0) {
    error(StrFormat("%llu replayed proposals never resolved",
                    static_cast<unsigned long long>(
                        metrics.unresolved_fired())));
  }

  // The replayed ledger and state pass the end-to-end output checks.
  CheckChannels(workload, {{ReplicaView{"replay", &ledger, &db}}}, &out.errors);

  ReplayRaft(config, frames, &out);

  if (!tracer.Write(span_path)) error("cannot write spans to " + span_path);
  out.spans = tracer.size();
  return out;
}

}  // namespace fabricpp::perfbench
