// Move-only type-erased callables with a small-buffer optimization sized
// for the engine's hottest captures.
//
// `InlineFunction<R(Args...)>` is the general template; the engine's event
// callbacks use the `InlineCallback = InlineFunction<void()>` alias, and
// the hot-path observer hooks (receiver and sender callbacks) use
// argument-taking instantiations so those paths stay free of
// std::function's per-capture heap allocation too.
//
// The buffer is sized for the link pipeline: it schedules one propagate
// event per packet per hop capturing a full net::Packet (56 bytes) plus a
// pointer. std::function's typical 16-byte SBO heap-allocates every one of
// those; InlineFunction stores any capture up to kInlineBytes in place and
// touches the heap only for oversized or throwing-move captures (none
// exist on the hot path — link.cpp static_asserts its lambdas fit).
//
// Dispatch goes through a per-type operations table (invoke / relocate /
// destroy) instead of a vtable so the object stays trivially sized and
// relocation is a single indirect call. See docs/ENGINE.md.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace trim::sim {

template <typename Sig>
class InlineFunction;  // only the R(Args...) specialization exists

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  // 56-byte Packet + two pointers + slack; keeps the event-queue slot a
  // power-of-two 128 bytes (88 + ops pointer + slot bookkeeping).
  static constexpr std::size_t kInlineBytes = 88;

  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }
  // Const overload so factories held by const reference stay invocable
  // (std::function parity). The target is still invoked as non-const —
  // the engine's callables are stateless or own their mutation.
  R operator()(Args... args) const {
    return ops_->invoke(const_cast<unsigned char*>(storage_),
                        std::forward<Args>(args)...);
  }

  // Replace the target with `f`, constructed directly in this object's
  // storage (no temporary InlineFunction, no relocation). The scheduler
  // builds each event's callback in its slot this way.
  template <typename F>
  void assign(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>) {
      *this = std::forward<F>(f);
    } else {
      reset();
      emplace(std::forward<F>(f));
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  // True when the callable lives on the heap (oversized capture).
  bool heap_allocated() const { return ops_ != nullptr && ops_->heap; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-construct into `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
    bool heap;
  };

  template <typename Fn>
  static constexpr bool fits_inline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static Fn* as(void* storage) {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }
  template <typename Fn>
  static Fn** as_ptr(void* storage) {
    return std::launder(reinterpret_cast<Fn**>(storage));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* s, Args&&... args) -> R {
        return (*as<Fn>(s))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        Fn* f = as<Fn>(src);
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* s) { as<Fn>(s)->~Fn(); },
      /*heap=*/false,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* s, Args&&... args) -> R {
        return (**as_ptr<Fn>(s))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) { ::new (dst) Fn*(*as_ptr<Fn>(src)); },
      [](void* s) { delete *as_ptr<Fn>(s); },
      /*heap=*/true,
  };

  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  void move_from(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// The event queue's callback shape — the original InlineCallback.
using InlineCallback = InlineFunction<void()>;

}  // namespace trim::sim
