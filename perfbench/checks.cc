#include "checks.h"

#include <atomic>
#include <functional>
#include <thread>
#include <unordered_map>

#include "common/strings.h"
#include "proto/version.h"

namespace fabricpp::perfbench {
namespace {

// A broken run can produce one violation per transaction; the first few
// say what went wrong.
constexpr size_t kMaxErrorsPerCheck = 8;

void Report(std::vector<std::string>* errors, size_t* count,
            std::string message) {
  if ((*count)++ < kMaxErrorsPerCheck) errors->push_back(std::move(message));
}

struct Entry {
  std::string value;
  proto::Version version;
};

}  // namespace

std::vector<const ledger::StoredBlock*> BlocksOf(const ledger::Ledger& ledger) {
  std::vector<const ledger::StoredBlock*> blocks;
  for (uint64_t n = ledger.first_block() + 1; n < ledger.Height(); ++n) {
    blocks.push_back(ledger.GetBlock(n).value());
  }
  return blocks;
}

void CheckReplay(const workload::Workload& workload,
                 const std::vector<const ledger::StoredBlock*>& blocks,
                 const std::vector<ReplicaView>& replicas,
                 std::vector<std::string>* errors) {
  std::unordered_map<std::string, Entry> state;
  {
    statedb::StateDb seed;
    workload.SeedState(&seed);
    state.reserve(seed.NumKeys());
    seed.ForEach([&](const std::string& key, const statedb::VersionedValue& v) {
      state.emplace(key, Entry{v.value, v.version});
    });
  }
  const auto version_of = [&](const std::string& key) {
    const auto it = state.find(key);
    return it == state.end() ? proto::kNilVersion : it->second.version;
  };

  size_t count = 0;
  for (const ledger::StoredBlock* stored : blocks) {
    const proto::Block& block = stored->block;
    if (stored->validation_codes.size() != block.transactions.size()) {
      Report(errors, &count,
             StrFormat("replay: block %llu has %zu codes for %zu txs",
                       static_cast<unsigned long long>(block.header.number),
                       stored->validation_codes.size(),
                       block.transactions.size()));
      continue;
    }
    for (uint32_t i = 0; i < block.transactions.size(); ++i) {
      const proto::Transaction& tx = block.transactions[i];
      const proto::TxValidationCode code = stored->validation_codes[i];
      const proto::ReadItem* stale = nullptr;
      for (const proto::ReadItem& read : tx.rwset.reads) {
        if (version_of(read.key) != read.version) {
          stale = &read;
          break;
        }
      }
      if (code == proto::TxValidationCode::kMvccConflict && stale == nullptr) {
        Report(errors, &count,
               StrFormat("replay: block %llu tx %u flagged MVCC conflict but "
                         "reads current versions",
                         static_cast<unsigned long long>(block.header.number),
                         i));
      }
      if (code != proto::TxValidationCode::kValid) continue;
      if (stale != nullptr) {
        Report(errors, &count,
               StrFormat("replay: block %llu tx %u flagged valid but read %s "
                         "at %s, replay holds %s",
                         static_cast<unsigned long long>(block.header.number),
                         i, stale->key.c_str(),
                         stale->version.ToString().c_str(),
                         version_of(stale->key).ToString().c_str()));
      }
      const proto::Version version{block.header.number, i};
      for (const proto::WriteItem& write : tx.rwset.writes) {
        if (write.is_delete) {
          state.erase(write.key);
        } else {
          state[write.key] = Entry{write.value, version};
        }
      }
    }
  }

  for (const ReplicaView& r : replicas) {
    if (r.state->NumKeys() != state.size()) {
      Report(errors, &count,
             StrFormat("replay: %s holds %zu keys, replay %zu", r.peer.c_str(),
                       r.state->NumKeys(), state.size()));
    }
    r.state->ForEach([&](const std::string& key,
                         const statedb::VersionedValue& v) {
      const auto it = state.find(key);
      if (it == state.end()) {
        Report(errors, &count,
               StrFormat("replay: %s holds key %s the replay lacks",
                         r.peer.c_str(), key.c_str()));
      } else if (it->second.value != v.value ||
                 it->second.version != v.version) {
        Report(errors, &count,
               StrFormat("replay: %s key %s = %s at %s, replay %s at %s",
                         r.peer.c_str(), key.c_str(), v.value.c_str(),
                         v.version.ToString().c_str(),
                         it->second.value.c_str(),
                         it->second.version.ToString().c_str()));
      }
    });
  }
}

void CheckChannels(const workload::Workload& workload,
                   const std::vector<std::vector<ReplicaView>>& channels,
                   std::vector<std::string>* errors) {
  // Per replica: fingerprint and chain verification; per channel: the
  // replay. Each task writes only its own slot.
  struct ReplicaResult {
    std::string fingerprint;
    Status chain;
  };
  std::vector<std::vector<ReplicaResult>> replica_results(channels.size());
  std::vector<std::vector<std::string>> replay_errors(channels.size());
  std::vector<std::function<void()>> tasks;
  for (size_t c = 0; c < channels.size(); ++c) {
    if (channels[c].empty()) continue;
    replica_results[c].resize(channels[c].size());
    tasks.push_back([&, c]() {
      CheckReplay(workload, BlocksOf(*channels[c].front().ledger), channels[c],
                  &replay_errors[c]);
    });
    for (size_t r = 0; r < channels[c].size(); ++r) {
      tasks.push_back([&, c, r]() {
        replica_results[c][r].fingerprint = channels[c][r].state->Fingerprint();
        replica_results[c][r].chain = channels[c][r].ledger->VerifyChain();
      });
    }
  }
  std::atomic<size_t> next{0};
  const auto worker = [&]() {
    for (size_t i = next++; i < tasks.size(); i = next++) tasks[i]();
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();

  for (size_t c = 0; c < channels.size(); ++c) {
    size_t count = 0;
    for (size_t r = 0; r < channels[c].size(); ++r) {
      const ReplicaView& ref = channels[c].front();
      const ReplicaView& rep = channels[c][r];
      const std::string where =
          StrFormat("channel %zu: %s", c, rep.peer.c_str());
      if (!replica_results[c][r].chain.ok()) {
        Report(errors, &count,
               StrFormat("chain: %s: %s", where.c_str(),
                         replica_results[c][r].chain.ToString().c_str()));
      }
      if (r == 0) continue;
      if (rep.ledger->Height() != ref.ledger->Height()) {
        Report(errors, &count,
               StrFormat("agreement: %s height %llu, %s height %llu",
                         where.c_str(),
                         static_cast<unsigned long long>(rep.ledger->Height()),
                         ref.peer.c_str(),
                         static_cast<unsigned long long>(ref.ledger->Height())));
      } else if (rep.ledger->LastHash() != ref.ledger->LastHash()) {
        Report(errors, &count,
               StrFormat("agreement: %s tip hash differs from %s's",
                         where.c_str(), ref.peer.c_str()));
      }
      if (replica_results[c][r].fingerprint !=
          replica_results[c][0].fingerprint) {
        Report(errors, &count,
               StrFormat("agreement: %s state fingerprint differs from %s's",
                         where.c_str(), ref.peer.c_str()));
      }
    }
    errors->insert(errors->end(), replay_errors[c].begin(),
                   replay_errors[c].end());
  }
}

}  // namespace fabricpp::perfbench
