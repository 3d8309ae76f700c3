// Struct-of-arrays frame pool: zero-allocation bookkeeping for in-flight
// frames.
//
// Every network transmission used to allocate a shared_ptr<Packet> whose
// std::any body held a full runtime::Message copy, plus a heap-spilled
// std::function closure per pipeline stage -- three allocations per send,
// times Theta(n^2) AUX frames per consensus instance. The pool replaces
// all of it with index-addressed parallel arrays: a frame is a slot index,
// its fields live in columnar storage recycled through a free list, and a
// FrameRef (pool pointer + index, 16 + 4 bytes) rides inside EventAction's
// inline buffer where shared_ptr<Packet> closures used to spill.
//
// A broadcast allocates ONE frame shared by all n-1 receivers (the body is
// immutable after allocation), instead of n-1 bodies; the batched hub path
// additionally records its fan-out list in the slot (bcast_dsts), whose
// vector capacity is recycled with the slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "des/time.hpp"

namespace sanperf::net {

using HostId = std::uint32_t;

/// Move-only type-erased frame payload, replacing std::any: no copy on
/// delivery (receivers read the one pooled instance), inline storage sized
/// for runtime::Message (a flat struct plus one vector), and a get<T>()
/// that checks the stored type like any_cast does.
class FrameBody {
 public:
  /// Covers runtime::Message (~104 bytes) and any test payload.
  static constexpr std::size_t kInlineBytes = 120;

  FrameBody() noexcept = default;

  template <typename T,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<T>, FrameBody>>>
  FrameBody(T&& v) {  // NOLINT(google-explicit-constructor): payload adaptor
    emplace(std::forward<T>(v));
  }

  FrameBody(FrameBody&& other) noexcept { move_from(other); }
  FrameBody& operator=(FrameBody&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  FrameBody(const FrameBody&) = delete;
  FrameBody& operator=(const FrameBody&) = delete;
  ~FrameBody() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept { return vtable_ != nullptr; }

  /// The stored payload; throws std::bad_cast when the frame holds a
  /// different type (or nothing).
  template <typename T>
  [[nodiscard]] const T& get() const {
    using D = std::decay_t<T>;
    // Vtable identity doubles as the type tag: vtable_for<D>() names one
    // function-local static per type program-wide.
    if (vtable_ != vtable_for<D>()) throw std::bad_cast{};
    if constexpr (fits_inline_v<D>) {
      return *std::launder(reinterpret_cast<const D*>(buf_));
    } else {
      return **std::launder(reinterpret_cast<D* const*>(buf_));
    }
  }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(buf_);
      vtable_ = nullptr;
    }
  }

 private:
  struct VTable {
    /// Move-constructs the payload into `dst` and destroys the source.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename T>
  static constexpr bool fits_inline_v = sizeof(T) <= kInlineBytes &&
                                        alignof(T) <= alignof(std::max_align_t) &&
                                        std::is_nothrow_move_constructible_v<T>;

  template <typename T>
  static const VTable* vtable_for() {
    if constexpr (fits_inline_v<T>) {
      static const VTable vt{
          [](void* dst, void* src) noexcept {
            ::new (dst) T(std::move(*static_cast<T*>(src)));
            static_cast<T*>(src)->~T();
          },
          [](void* p) noexcept { static_cast<T*>(p)->~T(); },
      };
      return &vt;
    } else {
      static const VTable vt{
          [](void* dst, void* src) noexcept { ::new (dst) T*(*static_cast<T**>(src)); },
          [](void* p) noexcept { delete *static_cast<T**>(p); },
      };
      return &vt;
    }
  }

  template <typename T>
  void emplace(T&& v) {
    using D = std::decay_t<T>;
    if constexpr (fits_inline_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<T>(v));
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<T>(v)));
    }
    vtable_ = vtable_for<D>();
  }

  void move_from(FrameBody& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(buf_, other.buf_);
      other.vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

/// A message in flight, as the filter and delivery callbacks see it: a
/// transient view into the pool (body points at the shared pooled payload;
/// null for synthetic packets tests construct field-wise).
struct Packet {
  HostId src = 0;
  HostId dst = 0;
  const FrameBody* body = nullptr;
  des::TimePoint sent_at;  ///< stamped when submitted to the sender CPU
};

/// The columnar frame arena. Single-threaded (one pool per cluster, like
/// the simulator), so the reference counts are plain integers.
class FramePool {
 public:
  using FrameIndex = std::uint32_t;

  /// Creates a frame with one reference. The slot comes off the free list
  /// in steady state -- no allocation once the pool reaches its high-water
  /// mark (body payloads fitting FrameBody's inline buffer included).
  FrameIndex allocate(HostId src, des::TimePoint sent_at, FrameBody body) {
    if (free_head_ != kNpos) {
      const FrameIndex idx = free_head_;
      free_head_ = next_free_[idx];
      src_[idx] = src;
      sent_at_[idx] = sent_at;
      body_[idx] = std::move(body);
      refcnt_[idx] = 1;
      ++live_;
      return idx;
    }
    const auto idx = static_cast<FrameIndex>(refcnt_.size());
    src_.push_back(src);
    sent_at_.push_back(sent_at);
    body_.push_back(std::move(body));
    refcnt_.push_back(1);
    next_free_.push_back(kNpos);
    bcast_dsts_.emplace_back();
    ++live_;
    return idx;
  }

  void add_ref(FrameIndex idx) { ++refcnt_[idx]; }

  void release(FrameIndex idx) {
    if (--refcnt_[idx] != 0) return;
    body_[idx].reset();
    bcast_dsts_[idx].clear();  // keeps capacity for the slot's next fan-out
    next_free_[idx] = free_head_;
    free_head_ = idx;
    --live_;
  }

  [[nodiscard]] HostId src(FrameIndex idx) const { return src_[idx]; }
  [[nodiscard]] des::TimePoint sent_at(FrameIndex idx) const { return sent_at_[idx]; }
  [[nodiscard]] const FrameBody& body(FrameIndex idx) const { return body_[idx]; }
  /// The batched-broadcast fan-out list (mutable: the sender fills it at
  /// submit time, before any receiver can observe the frame).
  [[nodiscard]] std::vector<HostId>& bcast_dsts(FrameIndex idx) { return bcast_dsts_[idx]; }

  [[nodiscard]] std::size_t live() const { return live_; }
  /// Slots ever allocated; asserts steady-state reuse in tests.
  [[nodiscard]] std::size_t slot_capacity() const { return refcnt_.size(); }

 private:
  static constexpr FrameIndex kNpos = 0xffffffffu;

  std::vector<HostId> src_;
  std::vector<des::TimePoint> sent_at_;
  /// Deques, not vectors: delivery hands out references into these columns
  /// (Packet::body, the batched fan-out walk) while the handler may send
  /// new messages and grow the pool -- deque growth never relocates.
  std::deque<FrameBody> body_;
  std::deque<std::vector<HostId>> bcast_dsts_;
  std::vector<std::uint32_t> refcnt_;
  std::vector<FrameIndex> next_free_;
  FrameIndex free_head_ = kNpos;
  std::size_t live_ = 0;
};

/// Shared handle to a pooled frame: pool pointer + slot index. Copying
/// bumps the slot's reference count; the slot recycles when the last ref
/// drops. Holds the pool itself alive so event actions queued in a
/// simulator that outlives the network stay destructible.
class FrameRef {
 public:
  FrameRef() noexcept = default;
  /// Adopts the initial reference allocate() created.
  FrameRef(std::shared_ptr<FramePool> pool, FramePool::FrameIndex idx) noexcept
      : pool_{std::move(pool)}, idx_{idx} {}

  FrameRef(const FrameRef& other) : pool_{other.pool_}, idx_{other.idx_} {
    if (pool_) pool_->add_ref(idx_);
  }
  FrameRef(FrameRef&& other) noexcept : pool_{std::move(other.pool_)}, idx_{other.idx_} {
    other.idx_ = 0;
  }
  FrameRef& operator=(const FrameRef& other) {
    FrameRef tmp{other};
    swap(tmp);
    return *this;
  }
  FrameRef& operator=(FrameRef&& other) noexcept {
    if (this != &other) {
      if (pool_) pool_->release(idx_);
      pool_ = std::move(other.pool_);
      idx_ = other.idx_;
      other.idx_ = 0;
    }
    return *this;
  }
  ~FrameRef() {
    if (pool_) pool_->release(idx_);
  }

  void swap(FrameRef& other) noexcept {
    pool_.swap(other.pool_);
    std::swap(idx_, other.idx_);
  }

  [[nodiscard]] explicit operator bool() const noexcept { return pool_ != nullptr; }
  [[nodiscard]] FramePool::FrameIndex index() const { return idx_; }
  [[nodiscard]] HostId src() const { return pool_->src(idx_); }
  [[nodiscard]] des::TimePoint sent_at() const { return pool_->sent_at(idx_); }
  [[nodiscard]] const FrameBody& body() const { return pool_->body(idx_); }
  [[nodiscard]] std::vector<HostId>& bcast_dsts() const { return pool_->bcast_dsts(idx_); }

  /// The transient view handed to the filter and delivery callbacks.
  [[nodiscard]] Packet packet(HostId dst) const {
    return Packet{src(), dst, &body(), sent_at()};
  }

 private:
  std::shared_ptr<FramePool> pool_;
  FramePool::FrameIndex idx_ = 0;
};

}  // namespace sanperf::net
