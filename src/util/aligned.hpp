#pragma once
// Cache-line / vector-register aligned storage.
//
// The SRVPack value and column-id planes are read with vector loads; aligning
// them to 64 bytes keeps every c-wide lane group within a single cache line
// (c=8 doubles == exactly one line) and enables aligned AVX-512 loads.

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <vector>

namespace wise {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal C++17 aligned allocator for std::vector.
template <typename T, std::size_t Alignment = kCacheLineBytes>
struct AlignedAllocator {
  using value_type = T;

  /// Explicit rebind: allocator_traits cannot synthesize one because the
  /// second template parameter is a non-type (the alignment).
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  static_assert(Alignment >= alignof(T), "alignment weaker than alignof(T)");
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment not a power of two");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = std::aligned_alloc(Alignment, round_up(n * sizeof(T)));
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }

 private:
  static constexpr std::size_t round_up(std::size_t bytes) noexcept {
    return (bytes + Alignment - 1) / Alignment * Alignment;
  }
};

/// Vector whose data pointer is 64-byte aligned.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// AlignedAllocator whose value-less construct() default-initialises, so
/// `resize(n)` of a trivial T leaves the new elements unwritten. For buffers
/// whose producer writes every element anyway: the pages are then first
/// touched by that (possibly parallel) write instead of by a serial zeroing
/// pass. Every element must be written before it is read.
template <typename T>
struct DefaultInitAlignedAllocator : AlignedAllocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAlignedAllocator<U>;
  };

  DefaultInitAlignedAllocator() noexcept = default;
  template <typename U>
  DefaultInitAlignedAllocator(const DefaultInitAlignedAllocator<U>&) noexcept {}

  /// Only the value-less form: copies and fills still go through
  /// std::allocator_traits' default construction.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// Aligned vector whose resize() does not zero the new elements.
template <typename T>
using uninit_aligned_vector = std::vector<T, DefaultInitAlignedAllocator<T>>;

}  // namespace wise
