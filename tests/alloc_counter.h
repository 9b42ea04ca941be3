// Counting allocator for zero-allocation assertions: every operator new
// in the process bumps g_live_allocs.  It replaces the global allocation
// functions, so include it from exactly one translation unit per test
// binary (each *_test.cpp is its own binary).
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long long> g_live_allocs{0};
}  // namespace

// GCC flags malloc-backed replacement allocators as mismatched pairs even
// though replacing all eight signatures together is well-defined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (!p) throw std::bad_alloc();
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// The aligned forms too, so over-aligned allocations cannot slip past a
// zero-allocation assertion.
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) /
                                   static_cast<std::size_t>(align) *
                                   static_cast<std::size_t>(align));
  if (!p) throw std::bad_alloc();
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
