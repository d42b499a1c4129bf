#include "runtime/thread_runtime.h"

#include <pthread.h>

#include <algorithm>
#include <cstdio>
#include <utility>

namespace fabricpp::runtime {

namespace {
/// How long a non-sheddable producer blocks at a full box before force-
/// enqueueing (deadlock freedom beats strict boundedness for local work).
constexpr auto kPushGracePeriod = std::chrono::milliseconds(100);
/// How long a transport delivery blocks before being shed. Short: a
/// saturated receiver should shed load quickly, not stall every sender.
constexpr auto kShedGracePeriod = std::chrono::milliseconds(5);
constexpr auto kQuiescePollInterval = std::chrono::microseconds(200);
}  // namespace

// --- Mailbox ---

ThreadRuntime::PushOutcome ThreadRuntime::Mailbox::Push(Task fn,
                                                        bool may_shed) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return PushOutcome::kShedClosed;
  bool forced = false;
  if (queue_.size() >= capacity_ &&
      std::this_thread::get_id() != consumer_) {
    // Backpressure (see the header): block briefly for a slot; the consumer
    // never waits on its own box (self-deadlock).
    const auto grace = may_shed ? kShedGracePeriod : kPushGracePeriod;
    if (!not_full_.wait_for(lock, grace, [this] {
          return queue_.size() < capacity_ || closed_;
        })) {
      if (may_shed) {
        runtime_->mailbox_shed_total_.fetch_add(1,
                                                std::memory_order_relaxed);
        runtime_->LogOverflow("shedding delivery", capacity_);
        return PushOutcome::kShedFull;
      }
      forced = true;
      runtime_->mailbox_forced_total_.fetch_add(1,
                                                std::memory_order_relaxed);
      runtime_->LogOverflow("forcing enqueue to avoid deadlock", capacity_);
    }
    if (closed_) return PushOutcome::kShedClosed;
  }
  runtime_->inflight_.fetch_add(1, std::memory_order_relaxed);
  queue_.push_back(std::move(fn));
  not_empty_.notify_one();
  return forced ? PushOutcome::kForced : PushOutcome::kOk;
}

void ThreadRuntime::Mailbox::PushTimer(TimeMicros when, Task fn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return;
  const bool wake = (timers_.empty() || when < timers_.top().when) &&
                    std::this_thread::get_id() != consumer_;
  timers_.push(TimerEntry{when, timer_seq_++, std::move(fn)});
  lock.unlock();
  if (wake) not_empty_.notify_one();
}

bool ThreadRuntime::Mailbox::Pop(Task* out) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const bool timer_due =
        !timers_.empty() && timers_.top().when <= runtime_->Now();
    if (timer_due && (!timer_last_ || queue_.empty())) {
      // Counted under the lock: Quiesce sees it in the heap or the count.
      runtime_->inflight_.fetch_add(1, std::memory_order_relaxed);
      *out = std::move(const_cast<TimerEntry&>(timers_.top()).fn);
      timers_.pop();
      timer_last_ = true;
      return true;
    }
    if (!queue_.empty()) {
      timer_last_ = false;
      *out = std::move(queue_.front());
      queue_.pop_front();
      not_full_.notify_one();
      return true;
    }
    if (closed_) return false;
    if (timers_.empty()) {
      not_empty_.wait(lock);
    } else {
      not_empty_.wait_until(lock, runtime_->TimePointFor(timers_.top().when));
    }
  }
}

bool ThreadRuntime::Mailbox::TimerDueBy(TimeMicros deadline) {
  std::lock_guard<std::mutex> lock(mu_);
  return !timers_.empty() && timers_.top().when <= deadline;
}

void ThreadRuntime::Mailbox::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    timers_ = {};
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

// --- ThreadClock ---

TimeMicros ThreadRuntime::ThreadClock::Now() const { return runtime_->Now(); }

void ThreadRuntime::ThreadClock::Schedule(TimeMicros delay, Task fn) {
  owner_->mailbox().PushTimer(runtime_->Now() + delay, std::move(fn));
}

void ThreadRuntime::ThreadClock::ScheduleAt(TimeMicros when, Task fn) {
  owner_->mailbox().PushTimer(std::max(when, runtime_->Now()), std::move(fn));
}

// --- ThreadEndpoint ---

ThreadRuntime::ThreadEndpoint::ThreadEndpoint(ThreadRuntime* runtime,
                                              NodeId id, std::string name)
    : runtime_(runtime),
      id_(id),
      name_(std::move(name)),
      clock_(runtime, this),
      mailbox_(runtime->options_.mailbox_capacity, runtime) {}

void ThreadRuntime::ThreadEndpoint::Post(Task fn) {
  mailbox_.Push(std::move(fn), /*may_shed=*/false);
}

ThreadRuntime::PushOutcome ThreadRuntime::ThreadEndpoint::PostDelivery(
    Task fn) {
  return mailbox_.Push(std::move(fn), /*may_shed=*/true);
}

void ThreadRuntime::ThreadEndpoint::StartThread() {
  thread_ = std::thread([this] { RunLoop(); });
}

void ThreadRuntime::ThreadEndpoint::Join() {
  if (thread_.joinable()) thread_.join();
}

void ThreadRuntime::ThreadEndpoint::RunLoop() {
  // Per-node attribution in top -H / perf; Linux caps names at 15 bytes.
  pthread_setname_np(pthread_self(), name_.substr(0, 15).c_str());
  mailbox_.BindConsumer();
  Task task;
  while (mailbox_.Pop(&task)) {
    task();
    // Destroy captured state before dropping the inflight count, so
    // Quiesce() returning implies all task captures are released too.
    task = nullptr;
    runtime_->inflight_.fetch_sub(1, std::memory_order_release);
  }
}

// --- ThreadTransport ---

void ThreadRuntime::ThreadTransport::Send(Endpoint& from, Endpoint& to,
                                          uint64_t size_bytes,
                                          Task on_deliver) {
  (void)from;
  runtime_->messages_sent_.fetch_add(1, std::memory_order_relaxed);
  runtime_->bytes_sent_.fetch_add(size_bytes, std::memory_order_relaxed);
  // Deliveries are sheddable: a saturated receiver drops the message (the
  // shed is counted, never silent) and node-level timeouts / catch-up
  // fetches recover — the same contract as the simulation's lossy network.
  static_cast<ThreadEndpoint&>(to).PostDelivery(std::move(on_deliver));
}

// --- ThreadRuntime ---

ThreadRuntime::ThreadRuntime(const Options& options)
    : options_(options), transport_(this) {
  epoch_ns_.store(
      std::chrono::steady_clock::now().time_since_epoch().count(),
      std::memory_order_relaxed);
}

ThreadRuntime::~ThreadRuntime() { Shutdown(); }

Endpoint& ThreadRuntime::AddEndpoint(const std::string& name) {
  const NodeId id = static_cast<NodeId>(endpoints_.size());
  endpoints_.push_back(std::make_unique<ThreadEndpoint>(this, id, name));
  endpoints_.back()->StartThread();
  return *endpoints_.back();
}

Executor& ThreadRuntime::AddExecutor(Endpoint& owner, const std::string& name,
                                     uint32_t num_servers) {
  (void)name;
  executors_.push_back(std::make_unique<ThreadExecutor>(
      static_cast<ThreadEndpoint*>(&owner), num_servers));
  return *executors_.back();
}

Transport& ThreadRuntime::transport() { return transport_; }

TimeMicros ThreadRuntime::Now() const {
  const int64_t now_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  const int64_t rel = now_ns - epoch_ns_.load(std::memory_order_relaxed);
  return rel <= 0 ? 0 : static_cast<TimeMicros>(rel / 1000);
}

ThreadPool* ThreadRuntime::RequestPool(PoolKind kind, uint32_t workers) {
  (void)kind;
  if (workers <= 1) return nullptr;
  // Requesters (peer validators, the orderer) run concurrently here, and
  // ThreadPool::ParallelFor is single-user — every requester gets its own
  // pool, unlike the simulation runtime's shared one per kind.
  pools_.push_back(std::make_unique<ThreadPool>(workers - 1));
  return pools_.back().get();
}

void ThreadRuntime::ResetEpoch() {
  epoch_ns_.store(
      std::chrono::steady_clock::now().time_since_epoch().count(),
      std::memory_order_relaxed);
  for (auto& ep : endpoints_) ep->mailbox().Wake();
}

std::chrono::steady_clock::time_point ThreadRuntime::TimePointFor(
    TimeMicros t) const {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
      epoch_ns_.load(std::memory_order_relaxed) +
      static_cast<int64_t>(t) * 1000));
}

void ThreadRuntime::SleepUntil(TimeMicros until) {
  std::this_thread::sleep_until(TimePointFor(until));
}

void ThreadRuntime::LogOverflow(const char* what, size_t capacity) {
  const int64_t now_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  int64_t last = last_overflow_log_ns_.load(std::memory_order_relaxed);
  constexpr int64_t kLogIntervalNs = 1'000'000'000;
  if (now_ns - last < kLogIntervalNs) return;
  if (!last_overflow_log_ns_.compare_exchange_strong(
          last, now_ns, std::memory_order_relaxed)) {
    return;  // Another thread just logged.
  }
  std::fprintf(stderr, "[thread_runtime] mailbox overflow (capacity %zu): %s\n",
               capacity, what);
}

bool ThreadRuntime::BusyWithin(TimeMicros horizon) {
  // Timers before the inflight count: a timer popped after its heap was
  // checked is already counted in inflight_ by the time we read it.
  const TimeMicros deadline = Now() + horizon;
  for (auto& ep : endpoints_) {
    if (ep->mailbox().TimerDueBy(deadline)) return true;
  }
  return inflight_.load(std::memory_order_acquire) != 0;
}

void ThreadRuntime::Quiesce(TimeMicros timer_horizon) {
  for (;;) {
    if (BusyWithin(timer_horizon)) {
      std::this_thread::sleep_for(kQuiescePollInterval);
      continue;
    }
    // Idle right now — but a timer just past the poll may still fire work.
    // Require the idle state to hold across one more interval.
    std::this_thread::sleep_for(kQuiescePollInterval);
    if (!BusyWithin(timer_horizon)) return;
  }
}

void ThreadRuntime::Shutdown() {
  // Close every box (dropping all timers) before joining any; each consumer
  // drains its queue. Posts to a closed mailbox during the drain drop.
  for (auto& ep : endpoints_) ep->mailbox().Close();
  for (auto& ep : endpoints_) ep->Join();
}

}  // namespace fabricpp::runtime
