// perfbench: the end-to-end benchmark of fabricpp.
//
// One process runs one workload once: it builds the network (several times,
// to time set-up), drives Smallbank through the real node state machines on
// the thread or socket runtime, measures goodput, commit latency, CPU and
// memory per committed transaction, and checks the outputs (replica
// agreement, chain verification, an independent replay of the ledger). With
// --trace 1 it reports per-layer numbers instead: counters read from the
// program's public accessors after the same end-to-end run, plus span
// self-times from a single-threaded replay (replay.cc). The last line of
// standard output is one JSON object; see README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//   perfbench --self-test

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/logging.h"
#include "common/strings.h"
#include "fabric/config.h"
#include "fabric/metrics.h"
#include "fabric/network.h"
#include "fabric/socket_host.h"
#include "node/mesh.h"
#include "replay.h"
#include "runtime/thread_runtime.h"
#include "workload/smallbank.h"

namespace fabricpp::perfbench {
namespace {

using fabric::TxOutcome;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Workloads ------------------------------------------------------------

/// One workload. Every workload runs the Fabric++ configuration with
/// 256-transaction blocks, one client per channel on one client thread, and
/// client resubmission off, so offered load never feeds back from aborts.
/// Each client fires at a fixed rate (an open loop) that stays below the
/// system's capacity even when the host loses half its CPU to other tenants:
/// saturation throughput on this host follows that lost CPU (README.md).
struct WorkloadSpec {
  std::string name;
  bool socket = false;
  uint32_t peers_per_org = 2;  ///< In each of the two orgs.
  uint32_t channels = 1;
  bool raft = false;
  /// Offered rate of each channel's client, tx/s.
  double rate_per_client = 0;
  double zipf_s = 0.0;
  double prob_write = 0.95;
};

/// Firing starts at 0; the measurement window is [kWarmupS, kWarmupS +
/// seconds).
constexpr double kWarmupS = 1.0;
/// Network builds timed per run; setup_s is their median.
constexpr uint32_t kSetups = 3;
/// Per-client in-flight bound; far above what the fixed rates need, so it
/// never holds a client back in a healthy run.
constexpr uint32_t kMaxInflight = 2048;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec uniform;
    uniform.name = "uniform-fixed-rate";
    uniform.rate_per_client = 4000;
    v.push_back(uniform);

    WorkloadSpec hot = uniform;
    hot.name = "hot-fixed-rate";
    hot.zipf_s = 1.0;
    hot.rate_per_client = 2000;
    v.push_back(hot);

    WorkloadSpec raft = uniform;
    raft.name = "raft-4ch-fixed-rate";
    raft.raft = true;
    raft.channels = 4;
    raft.rate_per_client = 750;
    v.push_back(raft);

    WorkloadSpec sock = uniform;
    sock.name = "socket-fixed-rate";
    sock.socket = true;
    sock.peers_per_org = 1;
    sock.prob_write = 0.5;
    v.push_back(sock);
    return v;
  }();
  return specs;
}

workload::SmallbankConfig SmallbankFor(const WorkloadSpec& spec) {
  workload::SmallbankConfig sb;
  sb.num_users = 100000;
  sb.prob_write = spec.prob_write;
  sb.zipf_s = spec.zipf_s;
  sb.channel_shards = spec.channels;
  return sb;
}

fabric::FabricConfig ConfigFor(const WorkloadSpec& spec, uint64_t seed) {
  fabric::FabricConfig c = fabric::FabricConfig::FabricPlusPlus();
  c.runtime_mode = spec.socket ? "socket" : "thread";
  c.num_orgs = 2;
  c.peers_per_org = spec.peers_per_org;
  c.num_channels = spec.channels;
  c.clients_per_channel = 1;
  c.thread_client_shards = 1;
  c.client_fire_rate_tps = spec.rate_per_client;
  c.client_max_inflight = kMaxInflight;
  c.client_resubmit = false;
  // The end-of-run drain waits until no client timer is due, so it lasts
  // about one endorsement timeout; the default 10 s would dominate a run.
  // Endorsement takes milliseconds here, so 3 s never expires in a healthy
  // run (an expiry counts as a failed operation).
  c.client_endorsement_timeout = 3 * sim::kSecond;
  c.block.max_transactions = 256;
  c.block.batch_timeout = 250 * sim::kMillisecond;
  if (spec.raft) {
    c.ordering_backend = fabric::OrderingBackend::kRaft;
    c.raft_cluster_size = 3;
  }
  c.seed = seed;
  return c;
}

/// Smallbank plus a record of when each proposal fired. Each channel has
/// exactly one client, and all clients live on one client thread, so the
/// n-th call for a channel generates that client's proposal n (ids start at
/// 1 and resubmission is off) and each per-channel vector has one writer.
/// The vectors are read only after the run has joined that thread.
class RecordingWorkload final : public workload::Workload {
 public:
  RecordingWorkload(const workload::SmallbankConfig& config, uint32_t channels)
      : inner_(config), fire_ns_(channels) {}

  std::string chaincode() const override { return inner_.chaincode(); }
  void SeedState(statedb::StateDb* db) const override {
    inner_.SeedState(db);
  }
  std::vector<std::string> NextArgs(Rng& rng) const override {
    return inner_.NextArgs(rng);
  }
  std::vector<std::string> NextArgsFor(uint32_t channel,
                                       Rng& rng) const override {
    fire_ns_[channel].push_back(NowNs());
    fired_.fetch_add(1, std::memory_order_relaxed);
    return inner_.NextArgsFor(channel, rng);
  }

  uint64_t fired() const { return fired_.load(std::memory_order_relaxed); }
  const std::vector<int64_t>& fire_ns(uint32_t channel) const {
    return fire_ns_[channel];
  }

 private:
  workload::SmallbankWorkload inner_;
  mutable std::atomic<uint64_t> fired_{0};
  mutable std::vector<std::vector<int64_t>> fire_ns_;
};

// --- Process measurements -------------------------------------------------

int64_t ReadRssBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * sysconf(_SC_PAGESIZE);
}

struct Usage {
  double user_us = 0;
  double sys_us = 0;
  double ctx_switches = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_us = ru.ru_utime.tv_sec * 1e6 + ru.ru_utime.tv_usec;
  u.sys_us = ru.ru_stime.tv_sec * 1e6 + ru.ru_stime.tv_usec;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

/// Everything read at a window boundary.
struct Snapshot {
  uint64_t fired = 0;
  uint64_t successful = 0;
  uint64_t aborts[fabric::kNumTxOutcomes] = {0};
  Usage usage;
};

/// Samples the run from a thread of its own: the counters at the two window
/// boundaries (at their exact times), the per-channel committed count every
/// half millisecond (each block's commit time is when its channel's count
/// first reaches the block's cumulative valid count), and the resident set
/// every 20 ms.
class Sampler {
 public:
  using CommitsFn = std::function<std::vector<uint64_t>()>;
  using SnapshotFn = std::function<Snapshot()>;

  Sampler(CommitsFn commits, SnapshotFn snapshot, uint32_t channels)
      : commits_(std::move(commits)),
        snapshot_(std::move(snapshot)),
        series_(channels) {}
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Start(int64_t window_start_ns, int64_t window_end_ns) {
    window_start_ns_ = window_start_ns;
    window_end_ns_ = window_end_ns;
    thread_ = std::thread([this]() { Loop(); });
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop().
  const Snapshot& at_start() const { return start_; }
  const Snapshot& at_end() const { return end_; }
  bool complete() const { return have_start_ && have_end_; }
  int64_t peak_rss() const { return peak_rss_; }
  /// Per channel: (time, committed count) at every observed change.
  const std::vector<std::vector<std::pair<int64_t, uint64_t>>>& series()
      const {
    return series_;
  }

 private:
  void Loop() {
    constexpr int64_t kPollNs = 500'000;
    constexpr int64_t kRssNs = 20'000'000;
    int64_t next_rss = 0;
    std::vector<uint64_t> last(series_.size(), 0);
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      const int64_t now = NowNs();
      if (!have_start_ && now >= window_start_ns_) {
        start_ = snapshot_();
        have_start_ = true;
      }
      if (!have_end_ && now >= window_end_ns_) {
        end_ = snapshot_();
        have_end_ = true;
      }
      const std::vector<uint64_t> counts = commits_();
      for (size_t c = 0; c < counts.size() && c < series_.size(); ++c) {
        if (counts[c] != last[c]) {
          series_[c].emplace_back(now, counts[c]);
          last[c] = counts[c];
        }
      }
      if (now >= next_rss) {
        peak_rss_ = std::max(peak_rss_, ReadRssBytes());
        next_rss = now + kRssNs;
      }
      int64_t wake = now + kPollNs;
      if (!have_start_) wake = std::min(wake, window_start_ns_);
      if (!have_end_) wake = std::min(wake, window_end_ns_);
      cv_.wait_until(lock, std::chrono::steady_clock::time_point(
                               std::chrono::nanoseconds(wake)),
                     [this]() { return stop_; });
    }
    peak_rss_ = std::max(peak_rss_, ReadRssBytes());
  }

  CommitsFn commits_;
  SnapshotFn snapshot_;
  int64_t window_start_ns_ = 0;
  int64_t window_end_ns_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool have_start_ = false;
  bool have_end_ = false;
  Snapshot start_;
  Snapshot end_;
  int64_t peak_rss_ = 0;
  std::vector<std::vector<std::pair<int64_t, uint64_t>>> series_;
  std::thread thread_;  // Last: joined before the members it uses die.
};

Snapshot TakeSnapshot(const RecordingWorkload& wl, const fabric::Metrics& m) {
  Snapshot s;
  s.fired = wl.fired();
  s.successful = m.successful();
  for (size_t i = 0; i < fabric::kNumTxOutcomes; ++i) {
    s.aborts[i] = m.aborts(static_cast<TxOutcome>(i));
  }
  s.usage = ReadUsage();
  return s;
}

/// Per-channel committed counts: the client of channel c is the only one
/// on it, so its successful count is the channel's.
std::vector<uint64_t> CommitsPerChannel(const fabric::Metrics& m,
                                        uint32_t channels) {
  if (channels == 1) return {m.successful()};
  std::vector<uint64_t> out(channels, 0);
  for (const auto& [client, count] : m.Report().per_client_successful) {
    uint32_t channel = 0, index = 0;
    if (node::ParseClientName(client, &channel, &index) && channel < channels) {
      out[channel] = count;
    }
  }
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t k = std::min(values.size() - 1,
                            static_cast<size_t>(q * values.size()));
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

// --- One end-to-end run ---------------------------------------------------

/// What a run left behind, [channel][peer], for checks and latencies.
using Replicas = std::vector<std::vector<ReplicaView>>;

struct LayerCounters {
  fabric::ValidationWallClock validation;
  fabric::ReorderWallClock reorder;
  fabric::RunReport observer;  ///< Block gap and size, at the observer.
  fabric::RunReport orderer;   ///< Ordering stalls, at the orderer.
  uint64_t messages = 0;
  uint64_t framed_bytes = 0;
  uint64_t socket_bytes = 0;
  uint64_t socket_frames = 0;
  uint64_t socket_writev = 0;
  uint64_t mailbox_forced = 0;
  uint64_t mailbox_shed = 0;
  uint64_t unresolved = 0;
};

struct RunOutcome {
  std::vector<double> setup_s;
  double seconds = 0;
  int64_t window_start_ns = 0;
  int64_t window_end_ns = 0;
  Snapshot start;
  Snapshot end;
  bool sampled = false;
  int64_t rss_base = 0;
  int64_t rss_peak = 0;
  std::vector<std::vector<std::pair<int64_t, uint64_t>>> series;
  LayerCounters counters;
  std::vector<std::string> errors;
  /// Commit latency samples, ms, by the second of the window the commit
  /// fell in; and the whole-run committed-valid count.
  std::vector<std::vector<double>> latencies_ms;
  uint64_t committed_valid_total = 0;
  /// Wall time of each phase of the process, for the run log.
  std::vector<std::pair<std::string, double>> phases;
};

/// Latency of every valid transaction committed inside the window: its
/// block's commit time (from the sampled per-channel committed count) minus
/// the time its proposal fired.
void CollectLatencies(const RecordingWorkload& wl, const Replicas& replicas,
                      RunOutcome* out) {
  for (uint32_t c = 0; c < replicas.size(); ++c) {
    const auto& series = out->series[c];
    const std::vector<int64_t>& fires = wl.fire_ns(c);
    const std::string client = node::ClientNameFor(c, 0);
    uint64_t cumulative = 0;
    size_t pos = 0;
    for (const ledger::StoredBlock* stored :
         BlocksOf(*replicas[c].front().ledger)) {
      uint64_t valid = 0;
      for (const auto code : stored->validation_codes) {
        valid += code == proto::TxValidationCode::kValid;
      }
      out->committed_valid_total += valid;
      if (valid == 0) continue;
      cumulative += valid;
      while (pos < series.size() && series[pos].second < cumulative) ++pos;
      if (pos == series.size()) continue;  // Committed after the window.
      const int64_t commit_ns = series[pos].first;
      if (commit_ns < out->window_start_ns || commit_ns >= out->window_end_ns) {
        continue;
      }
      const proto::Block& block = stored->block;
      for (size_t i = 0; i < block.transactions.size(); ++i) {
        if (stored->validation_codes[i] != proto::TxValidationCode::kValid) {
          continue;
        }
        const proto::Transaction& tx = block.transactions[i];
        if (tx.client != client || tx.proposal_id == 0 ||
            tx.proposal_id > fires.size()) {
          out->errors.push_back("latency: transaction of unknown proposal " +
                                tx.client + "/" +
                                std::to_string(tx.proposal_id));
          return;
        }
        const size_t second = static_cast<size_t>(
            (commit_ns - out->window_start_ns) / 1'000'000'000);
        if (second >= out->latencies_ms.size()) {
          out->latencies_ms.resize(second + 1);
        }
        out->latencies_ms[second].push_back(
            static_cast<double>(commit_ns - fires[tx.proposal_id - 1]) / 1e6);
      }
    }
  }
}

runtime::TimeMicros Micros(double seconds) {
  return static_cast<runtime::TimeMicros>(seconds * 1e6);
}

double SecondsSince(int64_t t_ns) { return (NowNs() - t_ns) / 1e9; }

/// Builds the network `setups` times, timing each build; the last one is
/// kept for the run.
template <typename Build>
auto TimedSetups(uint32_t setups, Build build, RunOutcome* out) {
  for (uint32_t k = 1; k < setups; ++k) {
    const int64_t t = NowNs();
    { auto throwaway = build(); }
    out->setup_s.push_back(SecondsSince(t));
    malloc_trim(0);
  }
  const int64_t t = NowNs();
  auto kept = build();
  out->setup_s.push_back(SecondsSince(t));
  out->rss_base = ReadRssBytes();
  return kept;
}

/// Runs `fire(duration)` — fire for the warm-up plus the window, then drain
/// — under the sampler, and keeps what the sampler saw.
template <typename Fire>
fabric::RunReport MeasuredRun(const WorkloadSpec& spec, double seconds,
                              const RecordingWorkload& wl,
                              const fabric::Metrics& metrics, Fire fire,
                              RunOutcome* out) {
  Sampler sampler(
      [&]() { return CommitsPerChannel(metrics, spec.channels); },
      [&]() { return TakeSnapshot(wl, metrics); }, spec.channels);
  const double duration = kWarmupS + seconds;
  const int64_t t = NowNs();
  out->window_start_ns = t + static_cast<int64_t>(kWarmupS * 1e9);
  out->window_end_ns = t + static_cast<int64_t>(duration * 1e9);
  sampler.Start(out->window_start_ns, out->window_end_ns);
  // The program's window is [0, duration): the sampler takes the
  // measurement window's boundaries itself.
  const fabric::RunReport report = fire(Micros(duration));
  sampler.Stop();
  out->phases.emplace_back("run+drain", SecondsSince(t));
  out->sampled = sampler.complete();
  out->start = sampler.at_start();
  out->end = sampler.at_end();
  out->rss_peak = sampler.peak_rss();
  out->series = sampler.series();
  out->counters.unresolved = metrics.unresolved_fired();
  out->counters.mailbox_shed = report.mailbox_shed_total;
  return report;
}

/// The output checks and the latency samples, once every node has stopped.
void CheckAndCollect(const RecordingWorkload& wl, const Replicas& replicas,
                     RunOutcome* out) {
  int64_t t = NowNs();
  CheckChannels(wl, replicas, &out->errors);
  out->phases.emplace_back("checks", SecondsSince(t));
  t = NowNs();
  CollectLatencies(wl, replicas, out);
  out->phases.emplace_back("latencies", SecondsSince(t));
}

void RunThread(const WorkloadSpec& spec, const fabric::FabricConfig& config,
               RecordingWorkload& wl, double seconds, uint32_t setups,
               RunOutcome* out) {
  auto network = TimedSetups(
      setups,
      [&]() { return std::make_unique<fabric::FabricNetwork>(config, &wl); },
      out);
  const fabric::Metrics& metrics = network->metrics();
  const fabric::RunReport report = MeasuredRun(
      spec, seconds, wl, metrics,
      [&](runtime::TimeMicros duration) {
        return network->RunFor(duration, 0);
      },
      out);

  LayerCounters& lc = out->counters;
  lc.validation = metrics.validation_wall_clock();
  lc.reorder = metrics.reorder_wall_clock();
  lc.observer = report;
  lc.orderer = report;
  const fabric::TransportCounters tc = metrics.transport_counters();
  lc.messages = tc.messages;
  lc.framed_bytes = tc.framed_bytes;
  const auto* rt =
      dynamic_cast<const runtime::ThreadRuntime*>(&network->runtime());
  if (rt != nullptr) lc.mailbox_forced = rt->mailbox_forced_total();

  Replicas replicas;
  replicas.resize(spec.channels);
  for (uint32_t c = 0; c < spec.channels; ++c) {
    for (uint32_t p = 0; p < network->num_peers(); ++p) {
      const fabric::PeerNode& peer = network->peer(p);
      replicas[c].push_back(
          ReplicaView{peer.name(), &peer.ledger(c), &peer.state_db(c)});
    }
  }
  CheckAndCollect(wl, replicas, out);
  const int64_t t = NowNs();
  network.reset();
  out->phases.emplace_back("teardown", SecondsSince(t));
}

/// A socket-mode cluster in this process: every role is its own SocketHost
/// with its own runtime and metrics, joined only by loopback TCP.
struct SocketCluster {
  std::unique_ptr<fabric::SocketHost> orderer;
  std::vector<std::unique_ptr<fabric::SocketHost>> peers;
  std::unique_ptr<fabric::SocketHost> clients;
  bool stopped = false;

  SocketCluster(fabric::FabricConfig base, const workload::Workload* wl) {
    const size_t num_peers =
        static_cast<size_t>(base.num_orgs) * base.peers_per_org;
    base.peer_addresses.assign(num_peers, "127.0.0.1:0");
    base.orderer_address = "127.0.0.1:0";
    fabric::FabricConfig oc = base;
    oc.listen_address = "127.0.0.1:0";
    fabric::SocketRole role;
    role.kind = fabric::SocketRole::Kind::kOrderer;
    orderer = std::make_unique<fabric::SocketHost>(oc, wl, role);
    MustStart(*orderer);
    base.orderer_address = StrFormat("127.0.0.1:%u", orderer->listen_port());
    for (size_t i = 0; i < num_peers; ++i) {
      fabric::FabricConfig pc = base;
      pc.listen_address = "127.0.0.1:0";
      role.kind = fabric::SocketRole::Kind::kPeer;
      role.peer_index = static_cast<uint32_t>(i);
      peers.push_back(std::make_unique<fabric::SocketHost>(pc, wl, role));
      MustStart(*peers.back());
      base.peer_addresses[i] =
          StrFormat("127.0.0.1:%u", peers.back()->listen_port());
    }
    role.kind = fabric::SocketRole::Kind::kClients;
    clients = std::make_unique<fabric::SocketHost>(base, wl, role);
    MustStart(*clients);
    bool connected = clients->WaitForCluster(15000);
    for (auto& p : peers) connected = connected && p->WaitForCluster(15000);
    if (!connected) {
      std::fprintf(stderr, "socket cluster never connected\n");
      std::exit(1);
    }
  }
  ~SocketCluster() { Stop(); }
  SocketCluster(const SocketCluster&) = delete;
  SocketCluster& operator=(const SocketCluster&) = delete;

  /// Shuts every host down and joins its threads; the peers' ledgers and
  /// states may be read afterwards.
  void Stop() {
    if (stopped) return;
    stopped = true;
    clients->BroadcastShutdown();
    clients->Stop();
    for (auto& p : peers) p->Stop();
    orderer->Stop();
  }

  static void MustStart(fabric::SocketHost& host) {
    const Status status = host.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "socket host start: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }
};

void RunSocket(const WorkloadSpec& spec, const fabric::FabricConfig& config,
               RecordingWorkload& wl, double seconds, uint32_t setups,
               RunOutcome* out) {
  auto cluster = TimedSetups(
      setups, [&]() { return std::make_unique<SocketCluster>(config, &wl); },
      out);
  const fabric::Metrics& metrics = cluster->clients->metrics();
  MeasuredRun(
      spec, seconds, wl, metrics,
      [&](runtime::TimeMicros duration) {
        fabric::RunReport r = cluster->clients->RunClients(duration, 0);
        // Wait until the peers stopped committing before shutting down.
        if (cluster->clients->CollectPeerReports(15000).size() !=
            cluster->peers.size()) {
          out->errors.push_back("socket: peers did not report their state");
        }
        return r;
      },
      out);
  cluster->Stop();

  LayerCounters& lc = out->counters;
  fabric::SocketHost& observer = *cluster->peers.front();
  lc.validation = observer.metrics().validation_wall_clock();
  lc.observer = observer.metrics().Report();
  lc.reorder = cluster->orderer->metrics().reorder_wall_clock();
  lc.orderer = cluster->orderer->metrics().Report();
  std::vector<fabric::SocketHost*> hosts = {cluster->orderer.get(),
                                            cluster->clients.get()};
  for (auto& p : cluster->peers) hosts.push_back(p.get());
  for (fabric::SocketHost* host : hosts) {
    const fabric::TransportCounters tc = host->metrics().transport_counters();
    lc.messages += tc.messages;
    lc.framed_bytes += tc.framed_bytes;
    const runtime::SocketTransport::Counters sc = host->transport().counters();
    lc.socket_bytes += sc.bytes_sent;
    lc.socket_frames += sc.frames_sent;
    lc.socket_writev += sc.writev_calls;
  }
  Replicas replicas;
  replicas.resize(spec.channels);
  for (uint32_t c = 0; c < spec.channels; ++c) {
    for (auto& host : cluster->peers) {
      const node::PeerNode& peer = *host->local_peer();
      replicas[c].push_back(
          ReplicaView{peer.name(), &peer.ledger(c), &peer.state_db(c)});
    }
  }
  CheckAndCollect(wl, replicas, out);
  const int64_t t = NowNs();
  cluster.reset();
  out->phases.emplace_back("teardown", SecondsSince(t));
}

// --- Reporting ------------------------------------------------------------

/// Outcomes that count an operation as failed. Concurrency-control aborts
/// (MVCC, stale simulation, reorderer, version skew, rwset mismatch) are
/// what optimistic execution is meant to produce and are not failures.
constexpr TxOutcome kFailureOutcomes[] = {
    TxOutcome::kAbortPolicy,          TxOutcome::kAbortChaincodeError,
    TxOutcome::kAbortEndorsementTimeout, TxOutcome::kAbortCommitTimeout,
    TxOutcome::kAbortDuplicateTxId,   TxOutcome::kAbortBusy,
};

uint64_t InWindow(const RunOutcome& r, TxOutcome outcome) {
  const size_t i = static_cast<size_t>(outcome);
  return r.end.aborts[i] - r.start.aborts[i];
}

std::string Json(double v) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.17g", v);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      Json(metrics[i].value).c_str(),
                      metrics[i].unit.c_str());
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double PerTx(double value, double txs) { return txs > 0 ? value / txs : 0; }

/// The median over the window's seconds of each second's `q` quantile: a
/// burst in one second moves one of the values, not the result.
double MedianPerSecond(const std::vector<std::vector<double>>& by_second,
                       double q) {
  std::vector<double> per_second;
  for (const auto& samples : by_second) {
    if (!samples.empty()) per_second.push_back(Quantile(samples, q));
  }
  return Median(per_second);
}

std::vector<Metric> EndToEndMetrics(const RunOutcome& r) {
  const double committed =
      static_cast<double>(r.end.successful - r.start.successful);
  const double cpu_us = (r.end.usage.user_us + r.end.usage.sys_us) -
                        (r.start.usage.user_us + r.start.usage.sys_us);
  return {
      {"goodput_tps", committed / r.seconds, "tx/s"},
      {"latency_p50_ms", MedianPerSecond(r.latencies_ms, 0.50), "ms"},
      {"latency_p99_ms", MedianPerSecond(r.latencies_ms, 0.99), "ms"},
      {"cpu_us_per_tx", PerTx(cpu_us, committed), "us"},
      {"rss_bytes_per_tx",
       PerTx(static_cast<double>(r.rss_peak - r.rss_base),
             static_cast<double>(r.committed_valid_total)),
       "B"},
      {"setup_s", Median(r.setup_s), "s"},
  };
}

std::vector<Metric> CounterMetrics(const WorkloadSpec& spec,
                                   const RunOutcome& r, uint64_t attempted) {
  const LayerCounters& lc = r.counters;
  const double committed =
      static_cast<double>(r.end.successful - r.start.successful);
  const double fired_total = static_cast<double>(r.end.fired);
  const double ktx = static_cast<double>(attempted) / 1000.0;
  const double due = spec.rate_per_client * spec.channels * r.seconds;
  const double val_blocks = static_cast<double>(lc.validation.blocks);
  const double reorder_batches = static_cast<double>(lc.reorder.batches);
  const double blocks = static_cast<double>(lc.observer.blocks_committed);
  return {
      {"workload.sent_per_due", PerTx(static_cast<double>(attempted), due),
       "ratio"},
      {"peer.verify_ms_per_block",
       PerTx(static_cast<double>(lc.validation.verify_ns) / 1e6, val_blocks),
       "ms"},
      {"peer.commit_ms_per_block",
       PerTx(static_cast<double>(lc.validation.commit_ns) / 1e6, val_blocks),
       "ms"},
      {"ordering.reorder_build_ms",
       PerTx(static_cast<double>(lc.reorder.build_us) / 1e3, reorder_batches),
       "ms"},
      {"ordering.reorder_enumerate_ms",
       PerTx(static_cast<double>(lc.reorder.enumerate_us) / 1e3,
             reorder_batches),
       "ms"},
      {"ordering.reorder_break_ms",
       PerTx(static_cast<double>(lc.reorder.break_us) / 1e3, reorder_batches),
       "ms"},
      {"ordering.stall_ms_per_block",
       PerTx(lc.orderer.ordering_stall_ms, blocks), "ms"},
      {"ordering.block_txs", lc.observer.avg_block_size, "tx"},
      {"ordering.reorder_aborts_per_ktx",
       PerTx(InWindow(r, TxOutcome::kAbortReorderer), ktx), "1/ktx"},
      {"ordering.skew_aborts_per_ktx",
       PerTx(InWindow(r, TxOutcome::kAbortVersionSkew), ktx), "1/ktx"},
      {"peer.mvcc_aborts_per_ktx",
       PerTx(InWindow(r, TxOutcome::kAbortMvcc), ktx), "1/ktx"},
      {"peer.stale_sim_aborts_per_ktx",
       PerTx(InWindow(r, TxOutcome::kAbortStaleSimulation), ktx), "1/ktx"},
      {"peer.rwset_mismatch_per_ktx",
       PerTx(InWindow(r, TxOutcome::kAbortRwsetMismatch), ktx), "1/ktx"},
      {"proto.framed_bytes_per_tx",
       PerTx(static_cast<double>(lc.framed_bytes), fired_total), "B"},
      {"node.messages_per_tx",
       PerTx(static_cast<double>(lc.messages), fired_total), "msg"},
      {"node.block_gap_ms", lc.observer.block_gap_avg_ms, "ms"},
      {"runtime.sys_cpu_us_per_tx",
       PerTx(r.end.usage.sys_us - r.start.usage.sys_us, committed), "us"},
      {"runtime.ctx_switches_per_tx",
       PerTx(r.end.usage.ctx_switches - r.start.usage.ctx_switches, committed),
       "count"},
      {"runtime.mailbox_forced", static_cast<double>(lc.mailbox_forced),
       "count"},
      {"runtime.mailbox_shed", static_cast<double>(lc.mailbox_shed), "count"},
      {"runtime.socket_bytes_per_tx",
       PerTx(static_cast<double>(lc.socket_bytes), fired_total), "B"},
      {"runtime.socket_frames_per_writev",
       PerTx(static_cast<double>(lc.socket_frames),
             static_cast<double>(lc.socket_writev)),
       "frames"},
  };
}

/// A channel's committed count at time `t`, from the sampled series.
uint64_t CountAt(const std::vector<std::pair<int64_t, uint64_t>>& series,
                 int64_t t) {
  const auto it = std::upper_bound(
      series.begin(), series.end(), t,
      [](int64_t v, const std::pair<int64_t, uint64_t>& p) {
        return v < p.first;
      });
  return it == series.begin() ? 0 : std::prev(it)->second;
}

void PrintRunSummary(const WorkloadSpec& spec, const RunOutcome& r,
                     uint64_t attempted, uint64_t failed) {
  std::printf("workload %s: window %.1f s after %.1f s warm-up\n",
              spec.name.c_str(), r.seconds, kWarmupS);
  std::printf("  operations: attempted=%llu failed=%llu unresolved=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(r.counters.unresolved));
  std::printf("  aborts in window:");
  for (size_t i = 1; i < fabric::kNumTxOutcomes; ++i) {
    const uint64_t n = InWindow(r, static_cast<TxOutcome>(i));
    if (n == 0) continue;
    std::printf(" %s=%llu",
                std::string(TxOutcomeToString(static_cast<TxOutcome>(i)))
                    .c_str(),
                static_cast<unsigned long long>(n));
  }
  // Committed per second of the window, all channels: shows slow phases.
  std::printf("\n  committed per second:");
  for (int64_t t = r.window_start_ns; t + 1'000'000'000 <= r.window_end_ns;
       t += 1'000'000'000) {
    uint64_t n = 0;
    for (const auto& series : r.series) n += CountAt(series, t + 1'000'000'000) -
                                             CountAt(series, t);
    std::printf(" %llu", static_cast<unsigned long long>(n));
  }
  std::vector<double> all;
  for (const auto& samples : r.latencies_ms) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  std::printf("\n  latency: %zu samples, whole window p50=%.2f ms p99=%.2f ms",
              all.size(), Quantile(all, 0.5), Quantile(all, 0.99));
  std::printf("\n  setups:");
  for (double s : r.setup_s) std::printf(" %.3fs", s);
  std::printf("\n  phases:");
  for (const auto& [phase, secs] : r.phases) {
    std::printf(" %s=%.2fs", phase.c_str(), secs);
  }
  std::printf("\n  rss base=%.1f MB peak=%.1f MB, committed (whole run)=%llu\n",
              r.rss_base / 1e6, r.rss_peak / 1e6,
              static_cast<unsigned long long>(r.committed_valid_total));
  for (const std::string& e : r.errors) std::printf("  CHECK FAILED: %s\n",
                                                    e.c_str());
}

// --- Self-test of the output checks ---------------------------------------

int SelfTest() {
  workload::SmallbankConfig sb;
  sb.num_users = 500;
  sb.zipf_s = 1.0;
  workload::SmallbankWorkload wl(sb);
  fabric::FabricConfig config = fabric::FabricConfig::FabricPlusPlus();
  config.block.max_transactions = 64;
  config.client_resubmit = false;
  fabric::FabricNetwork network(config, &wl);
  const fabric::RunReport report = network.RunFor(3 * sim::kSecond, 0);
  network.RunUntilIdle();  // Drain: every peer commits every block.
  std::printf("self-test run: %s\n", report.ToString().c_str());

  const auto views = [&network]() {
    std::vector<ReplicaView> v;
    for (uint32_t p = 0; p < network.num_peers(); ++p) {
      const fabric::PeerNode& peer = network.peer(p);
      v.push_back(ReplicaView{peer.name(), &peer.ledger(0), &peer.state_db(0)});
    }
    return v;
  };
  int failures = 0;
  const auto expect = [&failures](const char* what, bool caught,
                                  const std::vector<std::string>& errors) {
    std::printf("%s: %s\n", what, caught ? "ok" : "FAILED");
    for (const std::string& e : errors) std::printf("    %s\n", e.c_str());
    failures += caught ? 0 : 1;
  };

  std::vector<std::string> errors;
  CheckChannels(wl, {views()}, &errors);
  expect("clean run passes the checks", errors.empty(), errors);

  // Planted violation 1: a transaction that read a stale version, flagged
  // valid. Prefer a real MVCC-conflict victim; otherwise make a valid
  // transaction's read stale.
  std::vector<ledger::StoredBlock> copies;
  for (const ledger::StoredBlock* b : BlocksOf(network.peer(0).ledger(0))) {
    copies.push_back(*b);
  }
  bool planted = false;
  for (auto& b : copies) {
    for (auto& code : b.validation_codes) {
      if (code == proto::TxValidationCode::kMvccConflict) {
        code = proto::TxValidationCode::kValid;
        planted = true;
        break;
      }
    }
    if (planted) break;
  }
  for (size_t i = copies.size(); !planted && i-- > 0;) {
    auto& b = copies[i];
    for (size_t t = 0; t < b.block.transactions.size() && !planted; ++t) {
      auto& tx = b.block.transactions[t];
      if (b.validation_codes[t] == proto::TxValidationCode::kValid &&
          !tx.rwset.reads.empty()) {
        tx.rwset.reads.front().version.block_num += 1000000;
        planted = true;
      }
    }
  }
  std::vector<const ledger::StoredBlock*> planted_blocks;
  for (const auto& b : copies) planted_blocks.push_back(&b);
  errors.clear();
  CheckReplay(wl, planted_blocks, views(), &errors);
  expect("stale read flagged valid is caught", planted && !errors.empty(),
         errors);

  // Planted violation 2: one peer's value altered behind the validator.
  const proto::Transaction* written = nullptr;
  for (const auto* b : BlocksOf(network.peer(0).ledger(0))) {
    for (size_t t = 0; t < b->block.transactions.size(); ++t) {
      if (b->validation_codes[t] == proto::TxValidationCode::kValid &&
          !b->block.transactions[t].rwset.writes.empty()) {
        written = &b->block.transactions[t];
      }
    }
  }
  statedb::StateDb* victim = network.peer(1).mutable_state_db(0);
  const std::string key =
      written != nullptr ? written->rwset.writes.front().key : "";
  const auto before = victim->Get(key);
  if (written != nullptr && before.ok()) {
    victim->ApplyWrites({proto::WriteItem{key, before->value + "1", false}},
                        before->version);
  }
  errors.clear();
  CheckChannels(wl, {views()}, &errors);
  expect("altered peer value is caught",
         written != nullptr && before.ok() && !errors.empty(), errors);
  return failures == 0 ? 0 : 1;
}

// --- main -----------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <file>]\n       perfbench --self-test\n"
               "workloads:");
  for (const auto& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Blocks replayed by the traced mode: fixed work, so the replay metrics
/// of two runs compare the same inputs.
constexpr uint32_t kReplayBlocks = 64;

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_path = "perfbench-spans.csv";
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const auto& s : Workloads()) {
    if (s.name == workload_name) spec = &s;
  }
  if (spec == nullptr || !have_seed || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  SetLogLevel(LogLevel::kError);

  const fabric::FabricConfig config = ConfigFor(*spec, seed);
  const workload::SmallbankConfig sb = SmallbankFor(*spec);
  RecordingWorkload wl(sb, spec->channels);
  RunOutcome run;
  run.seconds = seconds;
  // The traced mode reports no set-up time: one build is enough.
  const uint32_t setups = trace == 1 ? 1 : kSetups;
  if (spec->socket) {
    RunSocket(*spec, config, wl, seconds, setups, &run);
  } else {
    RunThread(*spec, config, wl, seconds, setups, &run);
  }
  if (!run.sampled) run.errors.push_back("sampler missed the window");

  uint64_t attempted = run.end.fired - run.start.fired;
  uint64_t failed = run.counters.unresolved;
  for (const TxOutcome o : kFailureOutcomes) failed += InWindow(run, o);
  if (run.end.successful == run.start.successful) {
    run.errors.push_back("nothing committed in the window");
  }
  PrintRunSummary(*spec, run, attempted, failed);

  std::vector<Metric> metrics;
  std::vector<std::string> errors = run.errors;
  if (trace == 0) {
    metrics = EndToEndMetrics(run);
  } else {
    metrics = CounterMetrics(*spec, run, attempted);
    const workload::SmallbankWorkload replay_workload(sb);
    const ReplayResult replay =
        RunReplay(config, replay_workload, kReplayBlocks, spans_path);
    std::printf("replay: %llu proposals, %llu spans written to %s\n",
                static_cast<unsigned long long>(replay.transactions),
                static_cast<unsigned long long>(replay.spans),
                spans_path.c_str());
    for (const std::string& e : replay.errors) {
      std::printf("  CHECK FAILED: replay: %s\n", e.c_str());
    }
    errors.insert(errors.end(), replay.errors.begin(), replay.errors.end());
    metrics.insert(metrics.end(), replay.metrics.begin(),
                   replay.metrics.end());
    attempted += replay.transactions;
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = errors.empty();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fabricpp::perfbench

int main(int argc, char** argv) {
  return fabricpp::perfbench::Main(argc, argv);
}
