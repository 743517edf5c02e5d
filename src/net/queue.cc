#include "net/queue.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>

#include "exec/failpoints.h"
#include "util/timer.h"

namespace egocensus::net {
namespace {

/// True when the queued request's client has already hung up. Same probe
/// as the mid-execute DisconnectWatcher: POLLRDHUP catches half-closes,
/// and a zero-byte MSG_PEEK distinguishes "request pipelined behind this
/// one" (readable data) from "peer gone" (readable EOF).
bool ClientGone(int fd) {
  if (fd < 0) return false;
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN | POLLRDHUP;
  pfd.revents = 0;
  int rc = ::poll(&pfd, 1, 0);
  if (rc <= 0) return false;
  if ((pfd.revents & (POLLERR | POLLHUP | POLLRDHUP | POLLNVAL)) != 0) {
    return true;
  }
  if ((pfd.revents & POLLIN) != 0) {
    char probe = 0;
    ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
    return n == 0;
  }
  return false;
}

}  // namespace

const char* AdmitOutcomeName(AdmitOutcome outcome) {
  switch (outcome) {
    case AdmitOutcome::kGranted: return "granted";
    case AdmitOutcome::kOverflow: return "overflow";
    case AdmitOutcome::kDeadlineExpired: return "deadline";
    case AdmitOutcome::kDisconnected: return "disconnect";
    case AdmitOutcome::kDraining: return "draining";
  }
  return "?";
}

struct FairRequestQueue::Waiter {
  Tenant* tenant = nullptr;
  std::uint64_t bytes = 0;
  std::uint64_t deadline_us = 0;
  int client_fd = -1;
  bool queued = false;  // still linked into the tenant FIFO
  AdmitOutcome outcome = AdmitOutcome::kGranted;
  bool decided = false;  // granted or evicted
};

struct FairRequestQueue::Tenant {
  TenantQueueStats stats;
  std::deque<Waiter*> fifo;
  std::uint64_t deficit = 0;
  bool in_ring = false;
};

FairRequestQueue::FairRequestQueue(const QueueOptions& options)
    : options_(options) {
  if (options_.slots == 0) options_.slots = 1;
  if (options_.quantum == 0) options_.quantum = 1;
  if (options_.poll_ms <= 0) options_.poll_ms = 1;
}

FairRequestQueue::~FairRequestQueue() = default;

FairRequestQueue::Tenant& FairRequestQueue::TenantLocked(
    const std::string& tenant) {
  Tenant& t = tenants_[tenant];
  if (t.stats.tenant.empty()) t.stats.tenant = tenant;
  return t;
}

void FairRequestQueue::ScheduleLocked() {
  while (active_ < options_.slots && depth_ > 0) {
    Tenant* t = ring_.front();
    if (t->fifo.empty()) {
      // Emptied by grants or evictions since it was queued; drop it from
      // the ring and reset its deficit so an idle tenant never banks
      // credit toward a future burst.
      ring_.pop_front();
      t->in_ring = false;
      t->deficit = 0;
      continue;
    }
    if (t->deficit == 0) {
      // Out of credit this round: top up and rotate to the back.
      t->deficit = options_.quantum;
      ring_.pop_front();
      ring_.push_back(t);
      continue;
    }
    --t->deficit;  // cost = 1 request
    Waiter* w = t->fifo.front();
    t->fifo.pop_front();
    w->queued = false;
    --depth_;
    queued_bytes_ -= w->bytes;
    w->outcome = AdmitOutcome::kGranted;
    w->decided = true;
    ++active_;
    peak_active_ = std::max(peak_active_, active_);
    ++t->stats.granted;
  }
}

void FairRequestQueue::EvictLocked(Waiter* waiter, AdmitOutcome outcome) {
  Tenant& t = *waiter->tenant;
  auto it = std::find(t.fifo.begin(), t.fifo.end(), waiter);
  if (it != t.fifo.end()) t.fifo.erase(it);
  waiter->queued = false;
  --depth_;
  queued_bytes_ -= waiter->bytes;
  waiter->outcome = outcome;
  waiter->decided = true;
  switch (outcome) {
    case AdmitOutcome::kDeadlineExpired: ++t.stats.evicted_deadline; break;
    case AdmitOutcome::kDisconnected: ++t.stats.evicted_disconnect; break;
    case AdmitOutcome::kDraining: ++t.stats.evicted_drain; break;
    default: break;
  }
  // A freed queue position may unblock nothing by itself, but eviction of
  // a head-of-line waiter changes what the scheduler would grant next.
  ScheduleLocked();
}

AdmitOutcome FairRequestQueue::Acquire(const std::string& tenant,
                                       std::uint64_t bytes,
                                       std::uint64_t deadline_us,
                                       int client_fd,
                                       std::uint64_t* wait_us) {
  EGO_FAILPOINT("net/queue/enqueue");
  const std::uint64_t enqueue_us = Timer::NowMicros();
  *wait_us = 0;
  Waiter waiter;
  {
    MutexLock lock(mu_);
    Tenant& t = TenantLocked(tenant);
    ++t.stats.enqueued;
    if (draining_) {
      ++t.stats.evicted_drain;
      lock.Unlock();
      EGO_FAILPOINT("net/queue/evict");
      return AdmitOutcome::kDraining;
    }
    if (deadline_us != 0 && enqueue_us >= deadline_us) {
      // Dead on arrival: the deadline already covers zero execution time.
      ++t.stats.evicted_deadline;
      lock.Unlock();
      EGO_FAILPOINT("net/queue/evict");
      return AdmitOutcome::kDeadlineExpired;
    }
    if (depth_ == 0 && active_ < options_.slots) {
      // Fast path: idle slot and an empty queue — grant without queueing.
      // (Skipping the queue is fair here: nobody is waiting.)
      ++active_;
      peak_active_ = std::max(peak_active_, active_);
      ++t.stats.granted;
      t.stats.wait.Record(0);
      lock.Unlock();
      EGO_FAILPOINT("net/queue/dequeue");
      return AdmitOutcome::kGranted;
    }
    if (options_.max_depth == 0 || depth_ >= options_.max_depth ||
        queued_bytes_ + bytes > options_.max_bytes) {
      ++t.stats.busy_overflow;
      lock.Unlock();
      EGO_FAILPOINT("net/queue/evict");
      return AdmitOutcome::kOverflow;
    }

    waiter.tenant = &t;
    waiter.bytes = bytes;
    waiter.deadline_us = deadline_us;
    waiter.client_fd = client_fd;
    waiter.queued = true;
    t.fifo.push_back(&waiter);
    if (!t.in_ring) {
      t.deficit = options_.quantum;
      t.in_ring = true;
      ring_.push_back(&t);
    }
    ++depth_;
    queued_bytes_ += bytes;
    ScheduleLocked();  // a slot may already be free

    while (!waiter.decided) {
      lock.WaitFor(cv_, std::chrono::milliseconds(options_.poll_ms));
      if (waiter.decided) break;
      const std::uint64_t now = Timer::NowMicros();
      if (waiter.deadline_us != 0 && now >= waiter.deadline_us) {
        EvictLocked(&waiter, AdmitOutcome::kDeadlineExpired);
      } else if (ClientGone(waiter.client_fd)) {
        EvictLocked(&waiter, AdmitOutcome::kDisconnected);
      }
    }
    const std::uint64_t waited = Timer::NowMicros() - enqueue_us;
    *wait_us = waited;
    if (waiter.outcome == AdmitOutcome::kGranted) t.stats.wait.Record(waited);
  }
  // Our enqueue or eviction may have let the scheduler grant other
  // waiters; wake them now instead of leaving them to their poll tick.
  cv_.notify_all();
  if (waiter.outcome == AdmitOutcome::kGranted) {
    EGO_FAILPOINT("net/queue/dequeue");
  } else {
    EGO_FAILPOINT("net/queue/evict");
  }
  return waiter.outcome;
}

void FairRequestQueue::Release() {
  {
    MutexLock lock(mu_);
    if (active_ > 0) --active_;
    ScheduleLocked();
  }
  cv_.notify_all();
}

void FairRequestQueue::BeginDrain() {
  {
    MutexLock lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
}

std::size_t FairRequestQueue::FlushForDrain() {
  std::size_t flushed = 0;
  {
    MutexLock lock(mu_);
    draining_ = true;
    for (auto& [name, t] : tenants_) {
      while (!t.fifo.empty()) {
        Waiter* w = t.fifo.front();
        t.fifo.pop_front();
        w->queued = false;
        --depth_;
        queued_bytes_ -= w->bytes;
        w->outcome = AdmitOutcome::kDraining;
        w->decided = true;
        ++t.stats.evicted_drain;
        ++flushed;
      }
    }
  }
  cv_.notify_all();
  return flushed;
}

bool FairRequestQueue::draining() const {
  MutexLock lock(mu_);
  return draining_;
}

bool FairRequestQueue::Idle() const {
  MutexLock lock(mu_);
  return depth_ == 0 && active_ == 0;
}

std::uint32_t FairRequestQueue::active() const {
  MutexLock lock(mu_);
  return active_;
}

std::uint32_t FairRequestQueue::peak_active() const {
  MutexLock lock(mu_);
  return peak_active_;
}

std::size_t FairRequestQueue::depth() const {
  MutexLock lock(mu_);
  return depth_;
}

std::uint64_t FairRequestQueue::queued_bytes() const {
  MutexLock lock(mu_);
  return queued_bytes_;
}

std::vector<TenantQueueStats> FairRequestQueue::TenantStats() const {
  MutexLock lock(mu_);
  std::vector<TenantQueueStats> out;
  out.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {
    TenantQueueStats s = t.stats;
    s.depth = t.fifo.size();
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace egocensus::net
