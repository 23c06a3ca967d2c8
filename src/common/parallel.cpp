#include "common/parallel.h"

#include <memory>

#include "obs/metrics.h"

namespace poiprivacy::common {

namespace {

std::atomic<std::size_t> g_default_threads{0};  // 0 = hardware default

// Depth of run_tasks frames on this thread. Workers and participating
// callers bump it while executing tasks, so nested submissions detect they
// are inside the pool and run inline instead of deadlocking.
thread_local int tls_task_depth = 0;

// Pool instrumentation (top-level batches only; nested inline submissions
// are part of their enclosing task's time). queue_depth counts tasks not
// yet claimed-and-finished in the current batch.
struct PoolMetrics {
  obs::Counter& batches;
  obs::Counter& tasks;
  obs::Gauge& queue_depth;
  obs::Histogram& task_seconds;
  obs::Histogram& batch_seconds;

  static PoolMetrics& get() {
    static PoolMetrics* metrics = new PoolMetrics{
        obs::global_registry().counter("parallel.batches"),
        obs::global_registry().counter("parallel.tasks"),
        obs::global_registry().gauge("parallel.queue_depth"),
        obs::global_registry().histogram("parallel.task_seconds"),
        obs::global_registry().histogram("parallel.batch_seconds"),
    };
    return *metrics;
  }
};

}  // namespace

std::size_t default_thread_count() noexcept {
  const std::size_t configured = g_default_threads.load(std::memory_order_relaxed);
  if (configured > 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void set_default_thread_count(std::size_t n) noexcept {
  g_default_threads.store(n, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(std::size_t concurrency)
    : concurrency_(concurrency > 0 ? concurrency : 1) {
  workers_.reserve(concurrency_ - 1);
  for (std::size_t i = 0; i + 1 < concurrency_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::work_on_current_batch() {
  const std::function<void(std::size_t)>* fn = fn_;
  const std::size_t total = total_;
  PoolMetrics& metrics = PoolMetrics::get();
  ++tls_task_depth;
  std::size_t i;
  while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < total) {
    try {
      {
        const obs::Span span(metrics.task_seconds);
        (*fn)(i);
      }
      metrics.queue_depth.add(-1);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      // Cancel the tasks nobody claimed yet; running ones finish normally.
      next_.store(total, std::memory_order_relaxed);
      break;
    }
  }
  --tls_task_depth;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
    if (stop_) return;
    seen_generation = generation_;
    if (fn_ == nullptr) continue;  // batch already drained and closed
    ++busy_workers_;
    lock.unlock();
    work_on_current_batch();
    lock.lock();
    if (--busy_workers_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run_tasks(std::size_t num_tasks,
                           const std::function<void(std::size_t)>& fn) {
  if (num_tasks == 0) return;
  // Serial path: single-threaded pool, a nested submission from inside a
  // task, or a batch too small to be worth waking workers for.
  if (concurrency_ <= 1 || tls_task_depth > 0 || num_tasks == 1) {
    const bool top_level = tls_task_depth == 0;
    ++tls_task_depth;
    struct DepthGuard {
      ~DepthGuard() { --tls_task_depth; }
    } guard;
    if (!top_level) {
      // Nested submissions run inside an already-timed task.
      for (std::size_t i = 0; i < num_tasks; ++i) fn(i);
      return;
    }
    PoolMetrics& metrics = PoolMetrics::get();
    metrics.batches.add(1);
    metrics.tasks.add(num_tasks);
    metrics.queue_depth.set(static_cast<std::int64_t>(num_tasks));
    const obs::Span batch_span(metrics.batch_seconds);
    for (std::size_t i = 0; i < num_tasks; ++i) {
      {
        const obs::Span task_span(metrics.task_seconds);
        fn(i);
      }
      metrics.queue_depth.add(-1);
    }
    return;
  }

  PoolMetrics& metrics = PoolMetrics::get();
  metrics.batches.add(1);
  metrics.tasks.add(num_tasks);
  metrics.queue_depth.set(static_cast<std::int64_t>(num_tasks));
  obs::Span batch_span(metrics.batch_seconds);

  std::lock_guard<std::mutex> serialize(run_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    total_ = num_tasks;
    next_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();
  work_on_current_batch();  // the calling thread is an executor too
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return busy_workers_ == 0; });
    fn_ = nullptr;  // workers waking late see a closed batch
    error = error_;
    error_ = nullptr;
  }
  batch_span.stop();
  metrics.queue_depth.set(0);
  if (error) std::rethrow_exception(error);
}

ThreadPool& global_pool() {
  static std::mutex pool_mu;
  static std::unique_ptr<ThreadPool> pool;
  std::lock_guard<std::mutex> lock(pool_mu);
  const std::size_t want = default_thread_count();
  if (!pool || pool->concurrency() != want) {
    pool = std::make_unique<ThreadPool>(want);
  }
  return *pool;
}

}  // namespace poiprivacy::common
