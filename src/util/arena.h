#ifndef MBTA_UTIL_ARENA_H_
#define MBTA_UTIL_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/check.h"

/// Poison/unpoison hooks: under ASan, memory handed back to the arena
/// (by Reset or by an ArenaVector regrow) is marked unaddressable, so a
/// dangling pointer into reclaimed scratch trips the sanitizer exactly
/// like a heap use-after-free would. No-ops in uninstrumented builds.
#if defined(__SANITIZE_ADDRESS__)
#define MBTA_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MBTA_ARENA_ASAN 1
#endif
#endif
#ifdef MBTA_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define MBTA_ARENA_POISON(ptr, len) __asan_poison_memory_region(ptr, len)
#define MBTA_ARENA_UNPOISON(ptr, len) __asan_unpoison_memory_region(ptr, len)
#else
#define MBTA_ARENA_POISON(ptr, len) ((void)(ptr), (void)(len))
#define MBTA_ARENA_UNPOISON(ptr, len) ((void)(ptr), (void)(len))
#endif

namespace mbta {

/// Deterministic bump allocator for solver scratch state.
///
/// Allocation is a pointer bump within the current page; exhausted pages
/// are retained across Reset(), so a warmed-up arena serves every
/// subsequent allocation cycle without touching the heap. Pages grow
/// geometrically, which bounds the page count at O(log total) and the
/// wasted tail at a constant fraction. There is no per-object free and
/// no destructor support: only trivially-destructible objects may live
/// here (ArenaVector enforces this at compile time), which is what makes
/// Reset() a constant-time rewind.
///
/// Not thread-safe: one arena belongs to one solve call on one thread.
class Arena {
 public:
  static constexpr std::size_t kDefaultPageBytes = std::size_t{1} << 16;

  explicit Arena(std::size_t min_page_bytes = kDefaultPageBytes)
      : min_page_bytes_(min_page_bytes) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of uninitialized storage aligned to `align`.
  /// Alignment must be a power of two no larger than what operator new
  /// guarantees (the arena never over-aligns pages).
  void* Allocate(std::size_t bytes, std::size_t align) {
    MBTA_CHECK(align != 0 && (align & (align - 1)) == 0);
    MBTA_CHECK(align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    if (bytes == 0) bytes = 1;
    for (;;) {
      if (page_ < pages_.size()) {
        Page& page = pages_[page_];
        const std::size_t aligned = (offset_ + (align - 1)) & ~(align - 1);
        if (aligned + bytes <= page.size) {
          std::byte* ptr = page.data.get() + aligned;
          offset_ = aligned + bytes;
          bytes_allocated_ += bytes;
          MBTA_ARENA_UNPOISON(ptr, bytes);
          return ptr;
        }
        // Current page exhausted: move on (the tail stays poisoned).
        ++page_;
        offset_ = 0;
        continue;
      }
      NewPage(bytes);
    }
  }

  /// Typed allocation of `count` default-uninitialized T.
  template <typename T>
  std::span<T> AllocateSpan(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is never destroyed element-wise");
    T* ptr = static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
    return std::span<T>(ptr, count);
  }

  /// Rewinds to empty, retaining every page for reuse. All outstanding
  /// allocations are invalidated (and poisoned under ASan).
  void Reset() {
    for (const Page& page : pages_) {
      MBTA_ARENA_POISON(page.data.get(), page.size);
    }
    page_ = 0;
    offset_ = 0;
    bytes_allocated_ = 0;
    ++resets_;
  }

  /// Bytes handed out since the last Reset (excluding alignment padding).
  std::size_t bytes_allocated() const { return bytes_allocated_; }
  /// Total bytes held in pages (the arena's heap footprint).
  std::size_t bytes_reserved() const { return bytes_reserved_; }
  /// Lifetime Reset() count.
  std::uint64_t resets() const { return resets_; }
  std::size_t num_pages() const { return pages_.size(); }

 private:
  struct Page {
    std::unique_ptr<std::byte[]> data;
    std::size_t size;
  };

  void NewPage(std::size_t at_least) {
    // Geometric growth from the largest existing page, so the steady
    // state is "first page fits everything".
    std::size_t size = min_page_bytes_;
    if (!pages_.empty()) size = pages_.back().size * 2;
    size = std::max(size, at_least);
    pages_.push_back({std::make_unique<std::byte[]>(size), size});
    bytes_reserved_ += size;
    MBTA_ARENA_POISON(pages_.back().data.get(), size);
    page_ = pages_.size() - 1;
    offset_ = 0;
  }

  std::size_t min_page_bytes_;
  std::vector<Page> pages_;
  std::size_t page_ = 0;    // index of the page being bumped
  std::size_t offset_ = 0;  // bump offset within that page
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::uint64_t resets_ = 0;
};

/// Minimal contiguous growable array over arena storage. Deliberately a
/// small subset of std::vector: trivially-copyable elements only, no
/// erase/insert, growth doubles capacity (the abandoned block stays in
/// the arena until the next Reset and is poisoned under ASan).
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ArenaVector is restricted to trivially-copyable, "
                "trivially-destructible element types");

 public:
  explicit ArenaVector(Arena* arena) : arena_(arena) {
    MBTA_CHECK(arena != nullptr);
  }
  ArenaVector(const ArenaVector&) = delete;
  /// Copy-assign copies elements into this vector's own storage (used by
  /// the gain kernel's `values_plus = values` step); the arenas may
  /// differ.
  ArenaVector& operator=(const ArenaVector& other) {
    if (this == &other) return *this;
    clear();
    reserve(other.size_);
    if (other.size_ != 0) {
      std::memcpy(static_cast<void*>(data_), other.data_,
                  other.size_ * sizeof(T));
    }
    size_ = other.size_;
    return *this;
  }

  void reserve(std::size_t capacity) {
    if (capacity <= capacity_) return;
    const std::size_t grown =
        std::max({capacity, capacity_ * 2, std::size_t{8}});
    T* fresh = arena_->AllocateSpan<T>(grown).data();
    if (size_ != 0) {
      std::memcpy(static_cast<void*>(fresh), data_, size_ * sizeof(T));
    }
    if (data_ != nullptr) {
      MBTA_ARENA_POISON(data_, capacity_ * sizeof(T));
    }
    data_ = fresh;
    capacity_ = grown;
  }

  void push_back(const T& value) {
    if (size_ == capacity_) reserve(size_ + 1);
    data_[size_++] = value;
  }

  void pop_back() {
    MBTA_CHECK(size_ != 0);
    --size_;
  }

  /// Grows (or shrinks) to `count` elements. New elements are
  /// *uninitialized* — callers overwrite before reading (trivial types
  /// only, so there is nothing to construct).
  void resize_uninitialized(std::size_t count) {
    reserve(count);
    size_ = count;
  }

  void clear() { size_ = 0; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::span<T> span() { return {data_, size_}; }
  std::span<const T> span() const { return {data_, size_}; }

 private:
  Arena* arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Binary max-heap over an ArenaVector, implemented with std::push_heap /
/// std::pop_heap — the exact algorithms std::priority_queue runs on its
/// backing vector — so for a given push sequence and comparator the pop
/// order is identical to std::priority_queue's, tie-breaks included.
/// That equivalence is what lets the greedy solvers swap their heaps to
/// arena storage without perturbing a single commit.
template <typename T, typename Compare = std::less<T>>
class ArenaHeap {
 public:
  explicit ArenaHeap(Arena* arena) : items_(arena) {}

  void push(const T& value) {
    items_.push_back(value);
    std::push_heap(items_.begin(), items_.end(), compare_);
  }

  void pop() {
    std::pop_heap(items_.begin(), items_.end(), compare_);
    items_.pop_back();
  }

  const T& top() const { return items_[0]; }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  void reserve(std::size_t capacity) { items_.reserve(capacity); }

 private:
  ArenaVector<T> items_;
  Compare compare_{};
};

/// A solver-owned, reusable arena. Solvers hold one as a `mutable`
/// member and call Acquire() at the top of each Solve: the arena is
/// rewound (invalidating the previous solve's scratch) and handed out
/// for the duration of the call. After the first solve has sized the
/// pages, every later Acquire/solve cycle is heap-allocation-free.
///
/// Reuse contract (see CONTRIBUTING.md, "Memory & allocation"): Solve
/// stays `const` for API purposes, but concurrent Solve calls on the
/// *same solver object* would share this scratch and are not supported —
/// use one solver instance per thread.
class ScratchPool {
 public:
  ScratchPool() = default;
  /// Copying a solver must not share scratch: the copy starts cold.
  ScratchPool(const ScratchPool&) {}
  ScratchPool& operator=(const ScratchPool&) { return *this; }

  Arena* Acquire() {
    arena_.Reset();
    return &arena_;
  }

  const Arena& arena() const { return arena_; }

 private:
  Arena arena_;
};

}  // namespace mbta

#endif  // MBTA_UTIL_ARENA_H_
