#include "src/util/spin_park_lock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace mto {
namespace {

TEST(SpinParkLockTest, CountsExactlyUnderContention) {
  // Twice as many threads as a 4-core host has cores, so holders are
  // descheduled mid-section and waiters reach the park path.
  constexpr size_t kThreads = 8;
  constexpr uint64_t kAdds = 200000;
  SpinParkLock lock;
  uint64_t counter = 0;  // plain: only the lock orders the adds
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kAdds; ++i) {
        std::lock_guard<SpinParkLock> guard(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, kThreads * kAdds);
}

TEST(SpinParkLockTest, TryLockFailsOnlyWhileHeld) {
  SpinParkLock lock;
  ASSERT_TRUE(lock.try_lock());
  bool acquired_elsewhere = true;
  std::thread other([&] { acquired_elsewhere = lock.try_lock(); });
  other.join();
  EXPECT_FALSE(acquired_elsewhere);
  lock.unlock();
  ASSERT_TRUE(lock.try_lock());
  lock.unlock();
  EXPECT_EQ(lock.parks(), 0u);  // nobody ever waited
}

TEST(SpinParkLockTest, ParkedWaitersResumeWhenTheHolderSleeps) {
  // A holder that sleeps outlasts every waiter's spin phase, so each
  // waiter parks; unlock must wake them one after another, none lost.
  constexpr size_t kWaiters = 3;
  SpinParkLock lock;
  lock.lock();
  std::atomic<size_t> started{0};
  std::atomic<size_t> resumed{0};
  std::vector<std::thread> waiters;
  for (size_t t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      started.fetch_add(1);
      std::lock_guard<SpinParkLock> guard(lock);
      resumed.fetch_add(1);
    });
  }
  while (started.load() < kWaiters) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // A waiter the scheduler delayed past the sleep still has to park.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (lock.parks() < kWaiters &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(lock.parks(), kWaiters);
  EXPECT_EQ(resumed.load(), 0u);
  lock.unlock();
  for (auto& th : waiters) th.join();
  EXPECT_EQ(resumed.load(), kWaiters);
  EXPECT_EQ(lock.parks(), kWaiters);
  // The lock is free again, and an uncontended acquisition does not park.
  ASSERT_TRUE(lock.try_lock());
  lock.unlock();
  lock.lock();
  lock.unlock();
  EXPECT_EQ(lock.parks(), kWaiters);
}

}  // namespace
}  // namespace mto
