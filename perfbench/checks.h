#ifndef FABRICPP_PERFBENCH_CHECKS_H_
#define FABRICPP_PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "ledger/ledger.h"
#include "statedb/state_db.h"
#include "workload/workload.h"

namespace fabricpp::perfbench {

/// One peer's copy of one channel, as the output checks see it.
struct ReplicaView {
  std::string peer;
  const ledger::Ledger* ledger = nullptr;
  const statedb::StateDb* state = nullptr;
};

/// The committed blocks of one ledger in chain order (genesis excluded).
std::vector<const ledger::StoredBlock*> BlocksOf(const ledger::Ledger& ledger);

/// Independent replay of `blocks` from the workload's seed state: every
/// transaction flagged valid must read exactly the versions the replay holds
/// (earlier valid transactions of the same block included), every
/// transaction flagged as an MVCC conflict must read at least one outdated
/// version, and the replayed state must equal every replica's state key by
/// key (value and version). Uses nothing of the validator. Appends one line
/// per violation (at most a few per check) to `errors`.
void CheckReplay(const workload::Workload& workload,
                 const std::vector<const ledger::StoredBlock*>& blocks,
                 const std::vector<ReplicaView>& replicas,
                 std::vector<std::string>* errors);

/// All output checks of a finished run, per channel (`channels[c]` holds
/// every replica of channel c; none may still be written):
///  - replica agreement: same height, tip hash and state fingerprint;
///  - every replica's chain verifies (Ledger::VerifyChain);
///  - CheckReplay of the first replica's ledger against every replica.
/// Replicas are checked on up to four threads.
void CheckChannels(const workload::Workload& workload,
                   const std::vector<std::vector<ReplicaView>>& channels,
                   std::vector<std::string>* errors);

}  // namespace fabricpp::perfbench

#endif  // FABRICPP_PERFBENCH_CHECKS_H_
