#include "alloc_hook.h"

#include <cstdlib>
#include <new>

namespace {
thread_local bool g_count_allocations = false;
thread_local std::int64_t g_allocation_count = 0;
}  // namespace

// noinline keeps GCC from pairing the malloc/free inside with new/delete
// expressions at call sites (-Wmismatched-new-delete false positives).
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (g_count_allocations) ++g_allocation_count;
  void* ptr = std::malloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
  return operator new(size);
}

// The nothrow forms (std::stable_sort's temporary buffer) must be replaced
// too: their memory comes back through the operator delete below, so they
// have to come from the same malloc.
__attribute__((noinline)) void* operator new(std::size_t size,
                                             const std::nothrow_t&) noexcept {
  if (g_count_allocations) ++g_allocation_count;
  return std::malloc(size);
}

__attribute__((noinline)) void* operator new[](
    std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}

__attribute__((noinline)) void operator delete(void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete(void* ptr,
                                               std::size_t) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr,
                                                 std::size_t) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete(void* ptr,
                                               const std::nothrow_t&) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](
    void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace rankties {

void StartCountingAllocations() {
  g_allocation_count = 0;
  g_count_allocations = true;
}

std::int64_t StopCountingAllocations() {
  g_count_allocations = false;
  return g_allocation_count;
}

}  // namespace rankties
