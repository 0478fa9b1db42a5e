// Move-only callback with inline storage for the simulation kernel.
//
// std::function keeps only ~2 words of inline storage, so the engine's
// event lambdas — which capture `this` plus a handful of doubles — would
// heap-allocate on every schedule, on the ~2 events per decoded frame (the
// arrival and the decode completion) of the hot loop.  EventFn keeps 56
// bytes inline (every kernel callback in this codebase fits) and falls
// back to the heap only for larger captures, so behavior is unchanged and
// the fast path allocation-free.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dvs::sim {

class EventFn {
 public:
  EventFn() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): callable adaptor
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = vtable_inline<Fn>();
    } else {
      *reinterpret_cast<void**>(buf_) = new Fn(std::forward<F>(f));
      vt_ = vtable_heap<Fn>();
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  /// True when a callable is held (mirrors std::function's bool test).
  explicit operator bool() const { return vt_ != nullptr; }

  void operator()() { vt_->invoke(buf_); }

 private:
  static constexpr std::size_t kInlineSize = 56;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  template <typename Fn>
  static constexpr bool fits_inline =
      sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<Fn>;

  // All operations take the storage buffer; the vtable knows whether the
  // callable lives in it or behind a pointer stored in it.
  struct VTable {
    void (*invoke)(void* buf);
    void (*relocate)(void* dst_buf, void* src_buf);  ///< move into dst, end src
    void (*destroy)(void* buf);
  };

  template <typename Fn>
  static const VTable* vtable_inline() {
    static constexpr VTable vt{
        [](void* buf) { (*std::launder(reinterpret_cast<Fn*>(buf)))(); },
        [](void* dst, void* src) {
          Fn* s = std::launder(reinterpret_cast<Fn*>(src));
          ::new (dst) Fn(std::move(*s));
          s->~Fn();
        },
        [](void* buf) { std::launder(reinterpret_cast<Fn*>(buf))->~Fn(); }};
    return &vt;
  }

  template <typename Fn>
  static const VTable* vtable_heap() {
    static constexpr VTable vt{
        [](void* buf) { (**reinterpret_cast<Fn**>(buf))(); },
        [](void* dst, void* src) {
          *reinterpret_cast<void**>(dst) = *reinterpret_cast<void**>(src);
        },
        [](void* buf) { delete *reinterpret_cast<Fn**>(buf); }};
    return &vt;
  }

  void move_from(EventFn& other) noexcept {
    if (other.vt_ != nullptr) {
      vt_ = other.vt_;
      vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
  const VTable* vt_ = nullptr;
};

}  // namespace dvs::sim
