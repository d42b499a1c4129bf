// The thread runtime drives the same node state machines as the simulation
// runtime, but with every node on its own OS thread: races in the nodes, the
// mailboxes, their timer heaps or the metrics sink surface here (this binary
// runs under the TSan CI job). Timings are nondeterministic, so the
// assertions are about *consistency*, not throughput: every peer must
// converge to the identical chain, and the pipeline must make progress.
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fabric/network.h"
#include "runtime/runtime.h"
#include "runtime/thread_runtime.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace fabricpp {
namespace {

using fabric::FabricConfig;
using fabric::FabricNetwork;

/// A small, fast topology: the thread runtime charges no virtual CPU cost,
/// so short wall-clock windows already push hundreds of transactions
/// through every pipeline stage.
FabricConfig ThreadConfig() {
  FabricConfig config = FabricConfig::FabricPlusPlus();
  config.runtime_mode = "thread";
  config.client_fire_rate_tps = 400.0;
  config.client_max_inflight = 64;
  config.block.max_transactions = 128;
  config.block.batch_timeout = 100 * sim::kMillisecond;
  config.peer_fetch_retry_interval = 100 * sim::kMillisecond;
  return config;
}

/// Every live peer must have committed the identical chain: same height and
/// same tip hash on every channel. The thread transport is lossless and
/// RunFor quiesces before reporting, so convergence is exact, not eventual.
void ExpectConvergedChains(FabricNetwork& network) {
  for (uint32_t c = 0; c < network.config().num_channels; ++c) {
    const uint64_t height = network.peer(0).ledger(c).Height();
    const auto tip = network.peer(0).ledger(c).LastHash();
    for (uint32_t p = 1; p < network.num_peers(); ++p) {
      EXPECT_EQ(network.peer(p).ledger(c).Height(), height)
          << "peer " << p << " diverged on channel " << c;
      EXPECT_EQ(network.peer(p).ledger(c).LastHash(), tip)
          << "peer " << p << " forked on channel " << c;
    }
  }
}

TEST(RuntimeThreadTest, SmallbankConvergesAcrossPeers) {
  FabricConfig config = ThreadConfig();
  workload::SmallbankConfig wl;
  wl.num_users = 1000;
  wl.zipf_s = 1.0;
  workload::SmallbankWorkload workload(wl);

  FabricNetwork network(config, &workload);
  EXPECT_EQ(network.runtime().mode(), runtime::RuntimeMode::kThread);
  const fabric::RunReport report = network.RunFor(1500 * sim::kMillisecond);

  EXPECT_GT(report.successful, 0u);
  EXPECT_GT(report.blocks_committed, 0u);
  ExpectConvergedChains(network);
}

TEST(RuntimeThreadTest, YcsbConvergesAcrossPeersWithShardedClients) {
  FabricConfig config = ThreadConfig();
  config.thread_client_shards = 2;  // Two client-machine endpoint threads.
  config.clients_per_channel = 4;
  workload::YcsbConfig wl;
  wl.num_records = 1000;
  workload::YcsbWorkload workload(wl);

  FabricNetwork network(config, &workload);
  const fabric::RunReport report = network.RunFor(1500 * sim::kMillisecond);

  EXPECT_GT(report.successful, 0u);
  EXPECT_GT(report.blocks_committed, 0u);
  ExpectConvergedChains(network);

  // The runtime's transport counters saw real traffic.
  auto* rt = static_cast<runtime::ThreadRuntime*>(&network.runtime());
  EXPECT_GT(rt->messages_sent(), 0u);
  EXPECT_GT(rt->bytes_sent(), rt->messages_sent());
}

TEST(RuntimeThreadTest, CommittedStateIsIdenticalOnEveryPeer) {
  FabricConfig config = ThreadConfig();
  workload::YcsbConfig wl;
  wl.num_records = 200;
  workload::YcsbWorkload workload(wl);

  FabricNetwork network(config, &workload);
  network.RunFor(1000 * sim::kMillisecond);

  // No MVCC anomalies: the committed key/value state — not just the chain —
  // matches bit-for-bit across peers. A racy commit path (torn write,
  // version mixup between validator threads) would diverge here.
  for (uint64_t r = 0; r < wl.num_records; ++r) {
    const std::string key = workload::YcsbWorkload::RecordKey(r);
    const auto v0 = network.peer(0).state_db(0).Get(key);
    for (uint32_t p = 1; p < network.num_peers(); ++p) {
      const auto vp = network.peer(p).state_db(0).Get(key);
      ASSERT_EQ(v0.ok(), vp.ok()) << key;
      if (v0.ok()) {
        EXPECT_EQ(v0->value, vp->value) << key;
        EXPECT_EQ(v0->version, vp->version) << key;
      }
    }
  }
}

TEST(RuntimeThreadTest, OverloadWithAdmissionControlKeepsCommitting) {
  // Saturate tiny mailboxes with a spamming client while admission control
  // + BUSY backpressure are on: the run must complete (no wedge, no
  // collapse), keep committing, and account every shed mailbox delivery —
  // the former silent-overflow path now reports upward.
  FabricConfig config = ThreadConfig();
  config.mailbox_capacity = 64;  // Tiny: force overflow handling.
  config.clients_per_channel = 4;
  config.client_max_inflight = 256;
  config.client_endorsement_timeout = 300 * sim::kMillisecond;
  config.client_commit_timeout = 800 * sim::kMillisecond;
  config.admission_queue_depth = 32;
  config.fair_sched_quantum = 4;
  config.busy_retry_hint = 10 * sim::kMillisecond;
  workload::SmallbankConfig wl;
  wl.num_users = 1000;
  workload::SmallbankWorkload workload(wl);

  FabricNetwork network(config, &workload);
  network.client(0).set_fire_rate_multiplier(25.0);
  const fabric::RunReport report = network.RunFor(1500 * sim::kMillisecond);

  EXPECT_GT(report.successful, 0u) << "overload collapsed the pipeline";
  EXPECT_GT(report.blocks_committed, 0u);
  ExpectConvergedChains(network);

  // Every mailbox shed was counted, never silent: the runtime's counter
  // and the report's copy agree.
  auto* rt = static_cast<runtime::ThreadRuntime*>(&network.runtime());
  EXPECT_EQ(report.mailbox_shed_total, rt->mailbox_shed_total());
}

TEST(RuntimeThreadTest, RaftOrderingConvergesAcrossPeers) {
  // The Raft ordering backend on real threads: replicas on their own
  // mailbox threads, commits funneled back to the orderer's lane. Every
  // peer must still converge on one chain per channel.
  FabricConfig config = ThreadConfig();
  config.ordering_backend = fabric::OrderingBackend::kRaft;
  config.num_channels = 2;  // Exercise the per-channel lanes too.
  config.clients_per_channel = 2;
  workload::SmallbankConfig wl;
  wl.num_users = 1000;
  wl.channel_shards = 2;
  workload::SmallbankWorkload workload(wl);

  FabricNetwork network(config, &workload);
  const fabric::RunReport report = network.RunFor(2000 * sim::kMillisecond);

  EXPECT_GT(report.successful, 0u);
  EXPECT_GT(report.blocks_committed, 0u);
  ExpectConvergedChains(network);
}

TEST(RuntimeThreadTest, RaftLeaderKillUnderLoadConvergesWithoutAnomalies) {
  // Kill the Raft leader mid-run while clients keep firing: ordering
  // stalls through the election, resumes on the new leader, and no
  // committed block may be lost or delivered out of order. After the
  // quiesce every peer must hold the identical chain AND the identical
  // committed key/value state — a dropped or replayed block, or an MVCC
  // race in the failover path, would diverge one of them.
  FabricConfig config = ThreadConfig();
  config.ordering_backend = fabric::OrderingBackend::kRaft;
  config.num_channels = 2;
  config.clients_per_channel = 2;
  workload::YcsbConfig wl;
  wl.num_records = 500;
  workload::YcsbWorkload workload(wl);

  FabricNetwork network(config, &workload);
  // Crash at 600 ms for 600 ms: covers a full election (timeout
  // 150-300 ms) with load still flowing on both sides of the window.
  network.ScheduleRaftLeaderCrash(600 * sim::kMillisecond,
                                  600 * sim::kMillisecond);
  const fabric::RunReport report = network.RunFor(2500 * sim::kMillisecond);

  EXPECT_GT(report.successful, 0u) << "failover wedged the pipeline";
  EXPECT_GT(report.blocks_committed, 0u);
  ExpectConvergedChains(network);
  for (uint32_t c = 0; c < config.num_channels; ++c) {
    EXPECT_GT(network.peer(0).ledger(c).Height(), 1u) << "channel " << c;
    for (uint64_t r = 0; r < wl.num_records; ++r) {
      const std::string key = workload::YcsbWorkload::RecordKey(r);
      const auto v0 = network.peer(0).state_db(c).Get(key);
      for (uint32_t p = 1; p < network.num_peers(); ++p) {
        const auto vp = network.peer(p).state_db(c).Get(key);
        ASSERT_EQ(v0.ok(), vp.ok()) << key << " ch " << c;
        if (v0.ok()) {
          EXPECT_EQ(v0->value, vp->value) << key << " ch " << c;
          EXPECT_EQ(v0->version, vp->version) << key << " ch " << c;
        }
      }
    }
  }
}

TEST(RuntimeThreadTest, ManualProposalDrainsViaRunUntilIdle) {
  FabricConfig config = ThreadConfig();
  config.block.max_transactions = 1;  // Cut immediately.
  workload::SmallbankConfig wl;
  wl.num_users = 100;
  workload::SmallbankWorkload workload(wl);

  FabricNetwork network(config, &workload);
  network.SubmitProposal(0, 0, {"query", "7"});
  network.RunUntilIdle();

  EXPECT_EQ(network.metrics().successful(), 1u);
  ExpectConvergedChains(network);
}

TEST(RuntimeThreadTest, SimOnlyFacilitiesAreRejectedByMode) {
  // The sim-only surface aborts under the thread runtime rather than
  // returning something subtly wrong; the death expectation documents it.
  FabricConfig config = ThreadConfig();
  workload::SmallbankConfig wl;
  wl.num_users = 100;
  workload::SmallbankWorkload workload(wl);
  FabricNetwork network(config, &workload);
  EXPECT_DEATH(network.env(), "requires runtime_mode");
}

// --- ThreadRuntime timers (one deadline heap per endpoint mailbox) ---

using runtime::ThreadRuntime;
using runtime::TimeMicros;

constexpr TimeMicros kMs = 1000;

/// Collects values from endpoint threads; Wait blocks for `n` of them.
class Recorder {
 public:
  void Add(int64_t value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      values_.push_back(value);
    }
    cv_.notify_all();
  }
  bool Wait(size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return values_.size() >= n; });
  }
  std::vector<int64_t> values() {
    std::lock_guard<std::mutex> lock(mu_);
    return values_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int64_t> values_;
};

TEST(ThreadRuntimeTimerTest, EqualDeadlinesFireInFifoOrder) {
  Recorder fired;
  ThreadRuntime rt({});
  runtime::Endpoint& ep = rt.AddEndpoint("fifo");
  const TimeMicros when = rt.Now() + 50 * kMs;
  constexpr int kTimers = 64;
  for (int i = 0; i < kTimers; ++i) {
    ep.clock().ScheduleAt(when, [&fired, i] { fired.Add(i); });
  }
  ASSERT_TRUE(fired.Wait(kTimers, std::chrono::seconds(10)));
  const std::vector<int64_t> order = fired.values();
  for (int i = 0; i < kTimers; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadRuntimeTimerTest, TimerArmedByConsumerFiresOnTime) {
  // The consumer arms its own timer from inside a task: no wake-up is sent,
  // its next Pop must pick up the new deadline by itself.
  Recorder fired;
  ThreadRuntime rt({});
  runtime::Endpoint& ep = rt.AddEndpoint("self-armed");
  TimeMicros armed_at = 0;
  ep.Post([&] {
    armed_at = rt.Now();
    ep.clock().Schedule(30 * kMs, [&] { fired.Add(rt.Now()); });
  });
  ASSERT_TRUE(fired.Wait(1, std::chrono::seconds(10)));
  const TimeMicros late = fired.values()[0] - armed_at;
  EXPECT_GE(late, 30 * kMs);
  EXPECT_LT(late, 30 * kMs + 500 * kMs) << "fired far past its deadline";
}

TEST(ThreadRuntimeTimerTest, EarlierTimerFromAnotherThreadWakesConsumer) {
  Recorder fired;
  ThreadRuntime rt({});
  runtime::Endpoint& ep = rt.AddEndpoint("woken");
  // The consumer goes to sleep on a deadline ten seconds out...
  ep.clock().Schedule(10'000 * kMs, [] {});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // ...and a timer armed from this (non-consumer) thread for 1 ms must cut
  // that sleep short.
  const TimeMicros armed_at = rt.Now();
  ep.clock().Schedule(1 * kMs, [&] { fired.Add(rt.Now()); });
  ASSERT_TRUE(fired.Wait(1, std::chrono::seconds(5)));
  const TimeMicros latency = fired.values()[0] - armed_at;
  std::printf("[ timer    ] cross-thread earlier timer fired after %lld us\n",
              static_cast<long long>(latency));
  EXPECT_GE(latency, 1 * kMs);
  // About 5 ms on an idle host; the bound leaves room for loaded and
  // sanitized runs while staying far below the 10 s the consumer would
  // sleep without the wake-up.
  EXPECT_LT(latency, 50 * kMs);
}

TEST(ThreadRuntimeTimerTest, DueTimersDoNotStarveQueuedTasks) {
  // A timer that keeps re-arming itself already due (as a client behind its
  // fire schedule does) must not hold off posted work: timers and queued
  // tasks alternate.
  constexpr int kMaxRearms = 100000;
  Recorder ran;
  std::atomic<bool> posted_ran{false};
  int rearms = 0;
  ThreadRuntime rt({});
  runtime::Endpoint& ep = rt.AddEndpoint("starve");
  std::function<void()> rearm = [&] {
    if (posted_ran.load() || ++rearms >= kMaxRearms) {
      ran.Add(rearms);
      return;
    }
    if (rearms == 10) ep.Post([&] { posted_ran.store(true); });
    ep.clock().Schedule(0, rearm);
  };
  ep.Post([&] { ep.clock().Schedule(0, rearm); });
  ASSERT_TRUE(ran.Wait(1, std::chrono::seconds(30)));
  EXPECT_TRUE(posted_ran.load());
  EXPECT_LE(ran.values()[0], 12) << "posted task waited behind the timers";
}

TEST(ThreadRuntimeTimerTest, QuiesceWaitsOnlyForTimersWithinHorizon) {
  Recorder fired;
  ThreadRuntime rt({});
  runtime::Endpoint& ep = rt.AddEndpoint("quiesce");
  ep.clock().Schedule(100 * kMs, [&] { fired.Add(1); });
  ep.clock().Schedule(60'000 * kMs, [&] { fired.Add(2); });
  const auto start = std::chrono::steady_clock::now();
  rt.Quiesce(500 * kMs);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(fired.values(), std::vector<int64_t>{1});
  EXPECT_LT(waited, std::chrono::seconds(10));
}

TEST(ThreadRuntimeTimerTest, ShutdownDropsPendingTimers) {
  Recorder fired;
  auto capture = std::make_shared<int>(0);
  ThreadRuntime rt({});
  runtime::Endpoint& ep = rt.AddEndpoint("dropped");
  ep.clock().Schedule(50 * kMs, [&fired, capture] { fired.Add(1); });
  EXPECT_EQ(capture.use_count(), 2);
  rt.Shutdown();
  EXPECT_EQ(capture.use_count(), 1) << "dropped timer kept its captures";
  // Arming after shutdown is a silent no-op.
  ep.clock().Schedule(0, [&fired, capture] { fired.Add(2); });
  EXPECT_EQ(capture.use_count(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(fired.values().empty());
}

TEST(ThreadRuntimeTimerTest, TimerArmedBeforeResetEpochFiresInNewEpoch) {
  Recorder fired;
  ThreadRuntime rt({});
  runtime::Endpoint& ep = rt.AddEndpoint("epoch");
  ep.clock().ScheduleAt(200 * kMs, [&] { fired.Add(rt.Now()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  rt.ResetEpoch();
  ASSERT_TRUE(fired.Wait(1, std::chrono::seconds(10)));
  // Due at 200 ms of the new epoch, not 100 ms into it.
  EXPECT_GE(fired.values()[0], 200 * kMs);
}

TEST(ThreadRuntimeTest, EndpointThreadsAreNamedAfterEndpoints) {
  Recorder done;
  std::string name;
  ThreadRuntime rt({});
  runtime::Endpoint& ep = rt.AddEndpoint("orderer-lane-channel-3");
  ep.Post([&] {
    char buf[16] = {};
    pthread_getname_np(pthread_self(), buf, sizeof(buf));
    name = buf;
    done.Add(1);
  });
  ASSERT_TRUE(done.Wait(1, std::chrono::seconds(10)));
  EXPECT_EQ(name, "orderer-lane-ch");  // Cut to Linux's 15-byte limit.
}

}  // namespace
}  // namespace fabricpp
