#pragma once

#include <atomic>
#include <cstdint>

namespace mto {

/// A small mutual-exclusion lock for short critical sections shared by a
/// few threads: it spins a bounded number of times, then parks on
/// `std::atomic::wait` (a futex on Linux), and unlock wakes one waiter only
/// when some thread parked. The state machine is Drepper's three-state
/// futex mutex ("Futexes Are Tricky", mutex3): 0 free, 1 held, 2 held with
/// possible sleepers.
///
/// Why not `std::mutex`: glibc's mutex goes to the kernel on every
/// collision, so a critical section of a few hundred cycles pays a sleep
/// and a wake-up whenever two threads meet. Why not a pure spin lock: it
/// burns a core for as long as the holder is descheduled, which is the
/// common case once threads outnumber cores. Spinning first covers the
/// short-hold case; parking covers the descheduled holder.
///
/// Meets Lockable (`lock`, `try_lock`, `unlock`), so `std::lock_guard`
/// works. Not recursive; unlock only from the holding thread.
class SpinParkLock {
 public:
  /// Polls of the state before a contended `lock()` parks.
  static constexpr int kSpins = 256;

  SpinParkLock() = default;
  SpinParkLock(const SpinParkLock&) = delete;
  SpinParkLock& operator=(const SpinParkLock&) = delete;

  void lock() {
    uint32_t expected = kFree;
    if (state_.compare_exchange_strong(expected, kHeld,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return;
    }
    LockSlow();
  }

  bool try_lock() {
    uint32_t expected = kFree;
    return state_.compare_exchange_strong(expected, kHeld,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void unlock() {
    if (state_.exchange(kFree, std::memory_order_release) == kParked) {
      state_.notify_one();
    }
  }

  /// Acquisitions that spun out and parked, since construction. Counted
  /// only on that slow path; exact once no thread is locking.
  uint64_t parks() const { return parks_.load(std::memory_order_relaxed); }

 private:
  static constexpr uint32_t kFree = 0;
  static constexpr uint32_t kHeld = 1;
  static constexpr uint32_t kParked = 2;

  /// The contended path: up to kSpins polls, then park until handed a free
  /// state. Out of line so the uncontended `lock()` stays one CAS.
  void LockSlow();

  std::atomic<uint32_t> state_{kFree};
  std::atomic<uint64_t> parks_{0};
};

}  // namespace mto
