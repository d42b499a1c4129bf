#ifndef FABRICPP_PERFBENCH_REPLAY_H_
#define FABRICPP_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/config.h"
#include "workload/workload.h"

namespace fabricpp::perfbench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct ReplayResult {
  std::vector<Metric> metrics;
  uint64_t transactions = 0;  ///< Proposals replayed.
  uint64_t spans = 0;         ///< Spans written to the span file.
  std::vector<std::string> errors;
};

/// The traced mode: replays `blocks` blocks of `workload`'s requests (channel
/// 0, client seeds as the network derives them from `config.seed`) on one
/// thread through the modules' public functions in pipeline order —
/// generate, endorse at one peer per org, assemble, cut, skew-abort,
/// reorder, seal, wire encode/decode, validate and commit. A block's requests
/// are endorsed before the previous block commits, so in-block and
/// cross-block conflicts arise as in the pipeline. Every call is recorded as
/// a span (kept in memory, written to `span_path` as CSV at the end); the
/// per-layer metrics are span self-times. The encoded blocks are then
/// proposed to a 3-replica thread-mode Raft cluster. The replayed ledger and
/// state pass the same output checks as the end-to-end runs.
ReplayResult RunReplay(const fabric::FabricConfig& config,
                       const workload::Workload& workload, uint32_t blocks,
                       const std::string& span_path);

}  // namespace fabricpp::perfbench

#endif  // FABRICPP_PERFBENCH_REPLAY_H_
