#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>

#include "util/env.h"

namespace tb {

namespace {
thread_local bool t_in_worker = false;
}  // namespace

bool ThreadPool::in_worker() noexcept { return t_in_worker; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> fut = packaged.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = size();
  if (workers <= 1 || n <= grain || in_worker()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t chunks = std::min(workers * 4, (n + grain - 1) / grain);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    if (lo >= end) break;
    const std::size_t hi = std::min(end, lo + chunk);
    futs.push_back(submit([&body, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }));
  }
  // Drain every chunk before letting an exception escape: rethrowing while
  // chunks still run would unwind the caller's frame (and `body`'s captures)
  // under live workers. The first failure wins; later ones are dropped.
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::shared() {
  // Strict single-point knob loading (util/env.h): TOPOBENCH_THREADS must
  // be an integer in [0, 512] (0 = hardware concurrency) or pool creation
  // throws — a fleet must fail loudly, not silently fall back to a default
  // worker count.
  static ThreadPool pool(static_cast<std::size_t>(
      env::int_knob("TOPOBENCH_THREADS", 0, 0, 512)));
  return pool;
}

ThreadPool& ThreadPool::dedicated(std::size_t threads) {
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<ThreadPool>> pools;
  const std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<ThreadPool>& slot = pools[threads];
  if (!slot) slot = std::make_unique<ThreadPool>(threads);
  return *slot;
}

ThreadPool* ThreadPool::resolve(int threads) {
  if (threads == 1) return nullptr;
  if (threads <= 0 || in_worker()) return &shared();
  return &dedicated(static_cast<std::size_t>(threads));
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace tb
