// Slab/arena allocator for long-lived simulation objects.
//
// An Arena hands out bump-allocated storage from a chain of large chunks.
// Objects created through it are laid out contiguously in creation order
// (flows built in a loop end up packed the way the ACK loop visits them),
// stay pointer-stable for the arena's lifetime, and are *freed en masse*
// when the arena dies: ArenaPtr runs the destructor only, the storage is
// returned when the owning chunk chain is released. One Arena belongs to
// one world (mem::SimMemory attaches one per world simulator), so one
// world's objects never interleave with another's, even when parallel
// sweep jobs build worlds side by side.
//
// The arena is deliberately not a general-purpose free-list allocator:
// there is no per-object deallocate. That is what makes it cheap (pointer
// bump, no headers, no locks — one world, one thread) and what gives the
// en-masse free its O(chunks) teardown at World destruction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace trim::mem {

class Arena {
 public:
  // Default chunk: 256 KB holds ~400 sender/receiver pairs; large worlds
  // grow the chain geometrically (x2 up to kMaxChunkBytes) so a
  // million-flow world needs ~tens of chunks, not thousands.
  static constexpr std::size_t kDefaultChunkBytes = 256 * 1024;
  static constexpr std::size_t kMaxChunkBytes = 8 * 1024 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);
  ~Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Raw storage, suitably aligned. Never returns nullptr (throws
  // std::bad_alloc on exhaustion like operator new).
  void* allocate(std::size_t bytes, std::size_t align);

  // Construct a T in the arena. The caller owns the *object* (must run the
  // destructor, e.g. via ArenaPtr); the arena owns the storage.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* p = allocate(sizeof(T), alignof(T));
    return ::new (p) T(std::forward<Args>(args)...);
  }

  // Release every chunk (objects must already be destroyed). Keeps the
  // configured chunk size.
  void release();

  // ---- introspection (bench_memory / tests) ----
  std::size_t bytes_allocated() const { return bytes_allocated_; }  // requested
  std::size_t bytes_reserved() const { return bytes_reserved_; }    // chunk sum
  std::size_t chunk_count() const { return chunks_.size(); }
  std::size_t object_count() const { return objects_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void add_chunk(std::size_t min_bytes);

  std::vector<Chunk> chunks_;
  std::size_t next_chunk_bytes_;
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::size_t objects_ = 0;
};

// Deleter shared by heap- and arena-backed unique_ptrs: arena-backed
// objects are destroyed in place (storage freed en masse by the arena),
// heap-backed ones are deleted normally. Implicitly constructible from
// std::default_delete so existing `std::make_unique<Derived>(...)`
// factories keep converting to ArenaPtr<Base>.
struct ArenaDelete {
  bool heap = true;

  constexpr ArenaDelete() = default;
  constexpr explicit ArenaDelete(bool is_heap) : heap{is_heap} {}
  template <typename U>
  constexpr ArenaDelete(std::default_delete<U>) : heap{true} {}  // NOLINT

  template <typename T>
  void operator()(T* p) const {
    if (heap) {
      delete p;
    } else {
      p->~T();
    }
  }
};

template <typename T>
using ArenaPtr = std::unique_ptr<T, ArenaDelete>;

// Construct a T in `arena` (or on the heap when arena == nullptr, for
// bare-test paths that have no memory domain).
template <typename T, typename... Args>
ArenaPtr<T> arena_new(Arena* arena, Args&&... args) {
  if (arena == nullptr) {
    return ArenaPtr<T>{new T(std::forward<Args>(args)...), ArenaDelete{true}};
  }
  return ArenaPtr<T>{arena->create<T>(std::forward<Args>(args)...),
                     ArenaDelete{false}};
}

}  // namespace trim::mem
