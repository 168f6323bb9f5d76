// Counting replacements of the global operator new/delete, for the
// zero-allocation tests. Every form (plain, array, nothrow, over-aligned)
// bumps core::allocation_counter(), the library-side hook that
// core::AllocationProbe reads around a measured region, so nothing
// escapes the count.
//
// A program may define each replacement only once: include this header
// from exactly one translation unit of a test binary.
//
// The replacements are never inlined. Inlined, GCC sees the std::free in
// operator delete applied to memory that a new-expression took from
// operator new, and -Wmismatched-new-delete reports a mismatched pair
// (a false positive). Whether it fires depends on the optimizer's
// inlining choices in each test file, so -Werror builds broke or passed
// with unrelated edits. Opaque calls leave every new-expression paired
// with its delete-expression, which is exactly what the warning checks.
#pragma once

#include "core/alloc_probe.h"

#include <cstdlib>
#include <new>

namespace {

void* counted_alloc(std::size_t n) {
  icgkit::core::allocation_counter().fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  icgkit::core::allocation_counter().fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n ? n : align) != 0)
    return nullptr;
  return p;
}

} // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
[[gnu::noinline]] void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(al))) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
