#include "src/util/spin_park_lock.h"

namespace mto {
namespace {

/// Tells the core this is a spin-wait loop: on x86 `pause` yields the
/// pipeline to the sibling hyperthread and avoids the memory-order
/// mis-speculation flush when the awaited store lands.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

void SpinParkLock::LockSlow() {
  for (int i = 0; i < kSpins; ++i) {
    CpuRelax();
    // Test before the CAS, so spinners read the line shared instead of
    // bouncing it between cores with failed writes.
    uint32_t state = state_.load(std::memory_order_relaxed);
    if (state == kFree &&
        state_.compare_exchange_weak(state, kHeld, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return;
    }
  }
  parks_.fetch_add(1, std::memory_order_relaxed);
  // Mark the lock as having sleepers, so the holder's unlock wakes one.
  // Taking it from kFree leaves it at kParked: an unlock then issues one
  // spare wake-up, which is the price of not tracking the sleeper count.
  while (state_.exchange(kParked, std::memory_order_acquire) != kFree) {
    state_.wait(kParked, std::memory_order_relaxed);
  }
}

}  // namespace mto
