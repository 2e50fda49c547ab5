// Runtime contracts of the annotated primitives in common/sync.h. The
// compile-time half (lock-set verification) runs in the clang
// -Wthread-safety CI leg; these tests pin the behavior the annotations
// wrap: MutexLock scoping, exclusion observed from another thread
// (same-thread try_lock on a held std::mutex is UB, so every held-ness probe
// runs on a helper thread), CondVar wakeups with ownership staying on the
// caller's guard, and notify_all releasing every waiter.
#include "common/sync.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace nurd {
namespace {

// Probes mu from a fresh thread: true if that thread could acquire it.
bool acquirable_elsewhere(Mutex& mu) {
  bool got = false;
  std::thread prober([&] {
    if (mu.try_lock()) {
      got = true;
      mu.unlock();
    }
  });
  prober.join();
  return got;
}

TEST(Sync, MutexLockExcludesWhileHeldAndReleasesOnScopeExit) {
  Mutex mu;
  {
    MutexLock lock(mu);
    EXPECT_FALSE(acquirable_elsewhere(mu));
  }
  EXPECT_TRUE(acquirable_elsewhere(mu));
}

TEST(Sync, CondVarWaitKeepsOwnershipWithCallerGuard) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    // Ownership stayed with our guard across the wait: the mutex must
    // still be held by this thread after wait() returns.
    EXPECT_FALSE(acquirable_elsewhere(mu));
    EXPECT_TRUE(ready);
  }
  waker.join();
  EXPECT_TRUE(acquirable_elsewhere(mu));  // guard's dtor was the one unlock
}

TEST(Sync, NotifyAllReleasesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  int awake = 0;
  std::vector<std::thread> waiters;
  waiters.reserve(4);
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(mu);
      while (!go) cv.wait(mu);
      ++awake;
    });
  }
  {
    MutexLock lock(mu);
    go = true;
    cv.notify_all();
  }
  for (auto& t : waiters) t.join();
  MutexLock lock(mu);
  EXPECT_EQ(awake, 4);
}

}  // namespace
}  // namespace nurd
