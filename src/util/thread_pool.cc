#include "util/thread_pool.h"

#include <utility>

#include "util/logging.h"

namespace simsub::util {

namespace {

// Identifies the pool (and slot) owning the current thread. Thread-local so
// WorkerIndex() needs no locking and works with any number of pools.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local int tls_worker_index = -1;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  SIMSUB_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  SIMSUB_CHECK(task != nullptr);
  Task t;
  t.fn = std::move(task);
  std::future<void> result = t.done.get_future();
  {
    MutexLock lock(mu_);
    SIMSUB_CHECK(!stop_) << "Submit() on a destroyed ThreadPool";
    queue_.push_back(std::move(t));
    ++pending_;
  }
  task_ready_.notify_one();
  return result;
}

void ThreadPool::WaitAll() {
  MutexLock lock(mu_);
  // Explicit loop, not a predicate lambda: the analysis checks lambda
  // bodies as separate functions and could not see the lock held here.
  while (pending_ != 0) all_done_.wait(mu_);
}

int ThreadPool::WorkerIndex() const {
  return tls_pool == this ? tls_worker_index : -1;
}

void ThreadPool::WorkerLoop(int index) {
  tls_pool = this;
  tls_worker_index = index;
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) task_ready_.wait(mu_);
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task.fn();
      task.done.set_value();
    } catch (...) {
      task.done.set_exception(std::current_exception());
    }
    bool drained;
    {
      MutexLock lock(mu_);
      drained = --pending_ == 0;
    }
    if (drained) all_done_.notify_all();
  }
}

}  // namespace simsub::util
