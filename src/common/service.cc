#include "common/service.h"

#include <utility>

#include "common/check.h"

namespace qb5000 {

ServiceThread::~ServiceThread() { Stop(); }

void ServiceThread::Start(RoundFn round) {
  {
    MutexLock lock(&mu_);
    QB_CHECK(!running_);
    QB_CHECK(!thread_.joinable());
    round_ = std::move(round);
    stop_ = false;
    wake_ = false;
    running_ = true;
  }
  thread_ = std::thread([this] { Loop(); });
}

void ServiceThread::Stop() {
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    stop_ = true;
    cv_.NotifyAll();
  }
  thread_.join();
  MutexLock lock(&mu_);
  running_ = false;
  stop_ = false;
  cv_.NotifyAll();  // release any WaitIdle() caller racing the shutdown
}

void ServiceThread::Wake() {
  MutexLock lock(&mu_);
  if (!running_) return;
  wake_ = true;
  cv_.NotifyAll();
}

void ServiceThread::WaitIdle() {
  MutexLock lock(&mu_);
  if (!running_) return;
  // Force at least one more round so work enqueued just before this call is
  // observed, then wait for the park that follows it.
  wake_ = true;
  uint64_t target = idle_epoch_ + 1;
  cv_.NotifyAll();
  while (idle_epoch_ < target && running_ && !stop_) cv_.Wait(&mu_);
}

bool ServiceThread::running() const {
  MutexLock lock(&mu_);
  return running_;
}

void ServiceThread::Loop() {
  for (;;) {
    bool did_work = round_();
    if (did_work) continue;
    MutexLock lock(&mu_);
    if (wake_) {  // a producer raced the idle round; re-check the queue
      wake_ = false;
      continue;
    }
    ++idle_epoch_;
    cv_.NotifyAll();
    if (stop_) return;  // idle with the stop flag set ⇒ fully drained
    while (!wake_ && !stop_) cv_.Wait(&mu_);
    if (wake_) {
      wake_ = false;
      continue;
    }
    // stop_ set while parked: run one more drain round (a producer may have
    // pushed without a wake reaching us before Stop), exit at the next idle.
  }
}

}  // namespace qb5000
