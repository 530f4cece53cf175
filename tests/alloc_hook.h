#ifndef RANKTIES_TESTS_ALLOC_HOOK_H_
#define RANKTIES_TESTS_ALLOC_HOOK_H_

#include <cstdint>

// Allocation-counting hook for the zero-allocation contracts (warm prepared
// kernels, OnlineMedianAggregator::UpdateVoter): a test binary that links
// alloc_hook.cc replaces global operator new/delete with pass-throughs that
// bump a thread-local counter while a test has armed it. Thread-local keeps
// the hook race-free without putting atomics on every allocation in the
// binary.

namespace rankties {

/// Arms the calling thread's allocation counter at zero.
void StartCountingAllocations();

/// Disarms the counter and returns the number of global operator new calls
/// the calling thread made since StartCountingAllocations().
std::int64_t StopCountingAllocations();

}  // namespace rankties

#endif  // RANKTIES_TESTS_ALLOC_HOOK_H_
