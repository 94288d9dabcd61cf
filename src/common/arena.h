#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace qb5000 {

/// Monotonic (bump-pointer) allocation region for short-lived object graphs,
/// in the style of protobuf arenas. The SQL parser allocates every AST node
/// and normalized token string from one Arena per parse, turning a malloc
/// per node into a pointer bump; the whole graph is released in O(#blocks)
/// when the arena dies (DESIGN.md §11).
///
/// Objects whose type is not trivially destructible have their destructor
/// registered at creation and run exactly once, in reverse creation order,
/// when the arena is destroyed. Owners of arena objects (e.g. sql::ExprPtr
/// with its arena-aware deleter) must therefore never destroy them directly.
///
/// Not thread-safe: an Arena belongs to one parse on one thread.
class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = 4096;

  explicit Arena(size_t initial_block_bytes = kDefaultBlockBytes)
      : next_block_bytes_(initial_block_bytes == 0 ? kDefaultBlockBytes
                                                   : initial_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    // Reverse creation order, mirroring stack unwinding: later objects may
    // reference earlier ones.
    for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
      it->fn(it->object);
    }
  }

  /// Raw aligned storage; never returns nullptr (throws std::bad_alloc like
  /// operator new when the system allocator fails).
  void* Allocate(size_t bytes, size_t align) {
    QB_DCHECK(align != 0 && (align & (align - 1)) == 0);
    uintptr_t p = reinterpret_cast<uintptr_t>(ptr_);
    uintptr_t aligned = (p + align - 1) & ~(uintptr_t{align} - 1);
    if (aligned + bytes > reinterpret_cast<uintptr_t>(end_)) {
      NewBlock(bytes + align);
      p = reinterpret_cast<uintptr_t>(ptr_);
      aligned = (p + align - 1) & ~(uintptr_t{align} - 1);
    }
    ptr_ = reinterpret_cast<char*>(aligned + bytes);
    return reinterpret_cast<void*>(aligned);
  }

  /// Constructs a T in the arena. Non-trivially-destructible types get their
  /// destructor registered for the arena's teardown.
  template <typename T, typename... Args>
  T* Make(Args&&... args) {
    void* mem = Allocate(sizeof(T), alignof(T));
    T* obj = new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      finalizers_.push_back(
          {[](void* o) { static_cast<T*>(o)->~T(); }, obj});
    }
    return obj;
  }

 private:
  struct Finalizer {
    void (*fn)(void*);
    void* object;
  };

  void NewBlock(size_t min_bytes) {
    size_t size = next_block_bytes_;
    if (size < min_bytes) size = min_bytes;
    // Geometric growth caps the number of blocks at O(log total).
    next_block_bytes_ = size * 2;
    blocks_.push_back(std::make_unique<char[]>(size));
    ptr_ = blocks_.back().get();
    end_ = ptr_ + size;
  }

  std::vector<std::unique_ptr<char[]>> blocks_;
  std::vector<Finalizer> finalizers_;
  char* ptr_ = nullptr;
  char* end_ = nullptr;
  size_t next_block_bytes_;
};

}  // namespace qb5000
