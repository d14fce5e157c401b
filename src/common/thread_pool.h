// Minimal fixed-size worker pool for fanning out independent jobs (bench
// replays, trace grids). Simulator state is strictly per-device, so replays
// parallelise embarrassingly; the pool only supplies threads and a join.
//
// Determinism contract: tasks must write results into index-addressed slots
// they own exclusively (see common/slot_vector.h, which checks exactly
// that). The pool guarantees nothing about execution order — callers that
// need the sequential result must make each task independent of the others,
// which every bench replay already is (one fresh device each).
//
// Locking discipline is machine-checked: every shared member is
// AF_GUARDED_BY(mu_) and the clang CI job compiles with -Wthread-safety
// -Werror. The explicit while-wait loops (instead of predicate lambdas)
// keep the guarded reads inside the analysed scope that holds the lock.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace af {

class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads) {
    AF_CHECK_MSG(threads > 0, "thread pool needs at least one worker");
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
      // af_lint: allow(no-raw-thread) — the pool is the sanctioned owner of
      // raw threads; everything else goes through it.
      workers_.emplace_back([this] { run_worker(); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task) AF_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  /// Blocks until every submitted task has finished. A task that threw stops
  /// the drain early-ish (remaining tasks still run) and its first exception
  /// is rethrown here.
  void wait() AF_EXCLUDES(mu_) {
    UniqueLock lock(mu_);
    while (!queue_.empty() || running_ > 0) idle_cv_.wait(lock);
    if (first_error_) {
      std::exception_ptr err = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }

 private:
  void run_worker() AF_EXCLUDES(mu_) {
    while (true) {
      std::function<void()> task;
      {
        UniqueLock lock(mu_);
        while (!stopping_ && queue_.empty()) cv_.wait(lock);
        if (queue_.empty()) return;  // stopping_ with a drained queue
        task = std::move(queue_.front());
        queue_.pop_front();
        ++running_;
      }
      try {
        task();
      } catch (...) {
        MutexLock lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      {
        MutexLock lock(mu_);
        --running_;
        if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
      }
    }
  }

  Mutex mu_;
  std::condition_variable_any cv_;
  std::condition_variable_any idle_cv_;
  std::deque<std::function<void()>> queue_ AF_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
  unsigned running_ AF_GUARDED_BY(mu_) = 0;
  bool stopping_ AF_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ AF_GUARDED_BY(mu_);
};

/// Runs fn(0), …, fn(n-1) across up to `jobs` threads. jobs <= 1 runs inline
/// on the calling thread in index order — byte-for-byte the sequential path,
/// which is what the bench determinism checks compare against.
inline void parallel_for(std::uint64_t n, unsigned jobs,
                         const std::function<void(std::uint64_t)>& fn) {
  if (n == 0) return;
  if (jobs > n) jobs = static_cast<unsigned>(n);
  if (jobs <= 1) {
    for (std::uint64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(jobs);
  for (std::uint64_t i = 0; i < n; ++i) {
    pool.submit([&fn, i] { fn(i); });
  }
  pool.wait();
}

}  // namespace af
