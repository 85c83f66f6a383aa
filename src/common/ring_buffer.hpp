// Fixed-capacity FIFO ring buffer.
//
// Used for router VC buffers and shared-medium writer stagings, where the
// capacity is a hardware parameter fixed at construction and push/pop sit on
// the hot path. A ring never allocates: it views `capacity` slots of a
// RingSlab, so a component with many rings (a router's VC buffers, a
// medium's writer lanes) allocates its flit storage once instead of once per
// ring.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace ownsim {

template <typename T>
class RingBuffer {
 public:
  /// No storage; push is invalid until a view is assigned.
  RingBuffer() = default;

  /// Views `capacity` (>= 1) slots of a slab the caller keeps alive and does
  /// not move for the ring's lifetime.
  RingBuffer(T* slots, std::size_t capacity)
      : slots_(slots), capacity_(capacity) {
    assert(slots != nullptr && capacity > 0);
  }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t free_slots() const { return capacity_ - size_; }

  /// Appends `v`; caller must check !full().
  void push(T v) {
    assert(!full());
    slots_[tail_] = std::move(v);
    tail_ = next(tail_);
    ++size_;
  }

  /// Removes and returns the oldest element; caller must check !empty().
  T pop() {
    assert(!empty());
    T v = std::move(slots_[head_]);
    head_ = next(head_);
    --size_;
    return v;
  }

  /// Oldest element; caller must check !empty().
  const T& front() const {
    assert(!empty());
    return slots_[head_];
  }
  T& front() {
    assert(!empty());
    return slots_[head_];
  }

  /// Element `i` positions behind the front (0 == front).
  const T& at(std::size_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) % capacity_];
  }

  void clear() {
    head_ = tail_ = 0;
    size_ = 0;
  }

 private:
  std::size_t next(std::size_t i) const {
    return (i + 1 == capacity_) ? 0 : i + 1;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
};

/// Storage for the slots of many RingBuffer views, left uninitialized: a
/// ring writes a slot (push) before it reads it, and T is trivially
/// copyable, so the bytes hold a T once written. Set-up therefore neither
/// writes nor faults in the pages of buffers a run may never fill.
template <typename T>
class RingSlab {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  RingSlab() = default;
  explicit RingSlab(std::size_t count)
      : bytes_(std::make_unique_for_overwrite<std::byte[]>(count * sizeof(T))) {}

  T* slots() { return reinterpret_cast<T*>(bytes_.get()); }

 private:
  std::unique_ptr<std::byte[]> bytes_;
};

}  // namespace ownsim
