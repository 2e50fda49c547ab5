// A small work-stealing-free thread pool built for deterministic data
// parallelism. The library's two hot fan-outs — per-feature histogram
// construction inside RegressionTree and per-job evaluation in the harness —
// are index-parallel loops whose tasks write to disjoint slots, so the
// workhorse primitive is a blocking parallel_for; the serving layer
// additionally dispatches detached per-job tasks through submit().
//
// Determinism contract: parallel_for(count, fn) calls fn(i) exactly once for
// every i in [0, count). Which thread runs which index is unspecified, but as
// long as tasks only write to per-index state (the pattern used throughout
// this library), results are bit-identical across pool sizes, including the
// serial size-0 pool.
//
// The calling thread participates in the loop, so a pool with zero workers
// degrades to a plain serial loop, and nested parallel_for calls from inside
// a pool task can always make progress (the inner caller drains its own
// indices) — no deadlock by construction.
//
// Lock discipline (compiler-checked via common/sync.h): mutex_ guards the
// queue, the stop flag, and the detached-poison slot; it is a LEAF lock —
// tasks always run with it released, so a task may freely call submit() or
// parallel_for() on this pool again.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace nurd {

class ThreadPool {
 public:
  /// Spawns exactly `workers` threads. Zero workers is valid: every
  /// parallel_for then runs serially on the calling thread.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (excluding participating callers).
  std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for every i in [0, count), blocking until all calls return.
  /// The caller participates. The first exception thrown by any fn(i) is
  /// rethrown on the caller after the loop drains.
  ///
  /// A parallel_for issued from inside another parallel_for's task runs
  /// serially on the issuing thread: the outer loop already owns the
  /// hardware, so nested fan-out would only oversubscribe it (e.g. harness
  /// job lanes each containing pool-hungry histogram fits).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn)
      NURD_EXCLUDES(mutex_);

  /// Enqueues a detached task for the workers and returns immediately — the
  /// serving layer's dispatch primitive (completion tracking stays with the
  /// caller; the StreamMonitor counts in-flight events itself). The task runs
  /// with the nested-parallelism flag set, so parallel_for calls issued from
  /// inside it degrade to serial loops: a submitted task owns exactly one
  /// lane, and multi-job throughput comes from many tasks in flight, not
  /// from each task fanning out again. On a zero-worker pool the task runs
  /// inline on the calling thread before submit() returns.
  ///
  /// Unlike parallel_for, there is no completion channel. A detached task
  /// SHOULD keep its own try/catch and completion accounting (see the
  /// serving engine); an exception that does escape one does not unwind
  /// the worker — the pool catches it, records the first such exception
  /// under mutex_, and enters a POISONED state: the next submit() or
  /// parallel_for() call rethrows the recorded exception on the caller (and
  /// clears it, so the pool stays usable afterwards). The poison write and
  /// its surfacing read both happen under mutex_, so the hand-off is an
  /// annotated happens-before, not a convention. Destruction never throws;
  /// an unread poison is dropped with the pool.
  void submit(std::function<void()> task) NURD_EXCLUDES(mutex_);

  /// True when a detached task died with an exception that no submit() or
  /// parallel_for() call has surfaced yet.
  bool poisoned() const NURD_EXCLUDES(mutex_);

  /// Process-wide shared pool sized to the hardware: hardware_concurrency−1
  /// workers (the caller supplies the remaining lane), so a single-core
  /// machine gets a zero-worker pool and fully serial execution.
  static ThreadPool& global();

  /// The shared lane-resolution idiom of the evaluation harness and the
  /// trace generator: runs fn(i) for every i in [0, count) across `threads`
  /// lanes (0 = hardware concurrency, 1 = fully serial). A pool of
  /// threads−1 workers plus the participating caller gives exactly
  /// `threads` lanes; the usual determinism contract applies.
  static void run_indexed(std::size_t count, std::size_t threads,
                          const std::function<void(std::size_t)>& fn);

 private:
  struct LoopState;

  void worker_loop() NURD_EXCLUDES(mutex_);
  static void run_share(const std::shared_ptr<LoopState>& state);

  /// Rethrows (and clears) the recorded detached-task exception if one is
  /// pending; called at the poison surfacing points.
  void surface_poison() NURD_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ NURD_GUARDED_BY(mutex_);
  bool stop_ NURD_GUARDED_BY(mutex_) = false;
  /// First exception to escape a detached task (see submit()).
  std::exception_ptr detached_error_ NURD_GUARDED_BY(mutex_);
};

}  // namespace nurd
