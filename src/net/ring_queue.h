// A growable FIFO ring for one thread: the queue the stack and the
// simulator use wherever they would use a deque.
//
// Slots live in one power-of-two array indexed by (head + i) & mask, so
// push_back, push_front and pop_front are O(1) with no allocation in the
// steady state. Unlike the standard library's deque (libstdc++ allocates
// a 64-byte map and a 512-byte block as soon as one is constructed) an
// empty RingQueue owns no storage: the first push allocates kMinCapacity
// slots, a push into a full ring doubles it, and a pop that leaves it
// under a quarter full halves it, never below kMinCapacity. clear()
// gives the storage back. pop_front destroys the popped element at once,
// so a popped Payload drops its buffer reference immediately.
//
// Reference rule: growing or shrinking moves every element to a new
// array, so a reference, pointer or iterator into the ring is invalidated
// by any push or pop (a deque kept them valid across pushes at either
// end). Move an element out, or copy what you need, before calling
// anything that might push into or pop from the same ring.
#pragma once

#include <algorithm>
#include <cassert>
#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mptcp {

template <typename T>
class RingQueue {
  template <bool Const>
  class Iter;

 public:
  using value_type = T;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  /// Capacity of the first allocation and the floor shrinking stops at.
  static constexpr size_t kMinCapacity = 8;

  RingQueue() = default;
  ~RingQueue() { clear(); }

  RingQueue(RingQueue&& o) noexcept
      : slots_(std::exchange(o.slots_, nullptr)),
        cap_(std::exchange(o.cap_, 0)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)) {}

  RingQueue& operator=(RingQueue&& o) noexcept {
    if (this != &o) {
      clear();
      slots_ = std::exchange(o.slots_, nullptr);
      cap_ = std::exchange(o.cap_, 0);
      head_ = std::exchange(o.head_, 0);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }

  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Allocated slots (0 until the first push and after clear()).
  size_t capacity() const { return cap_; }

  T& operator[](size_t i) { return slots_[(head_ + i) & (cap_ - 1)]; }
  const T& operator[](size_t i) const {
    return slots_[(head_ + i) & (cap_ - 1)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) {
      grow(size_, 0, std::forward<Args>(args)...);
    } else {
      ::new (static_cast<void*>(&(*this)[size_]))
          T(std::forward<Args>(args)...);
    }
    ++size_;
    return back();
  }
  void push_back(T&& v) { emplace_back(std::move(v)); }
  void push_back(const T& v) { emplace_back(v); }

  template <typename... Args>
  T& emplace_front(Args&&... args) {
    if (size_ == cap_) {
      grow(0, 1, std::forward<Args>(args)...);
    } else {
      const size_t at = (head_ + cap_ - 1) & (cap_ - 1);
      ::new (static_cast<void*>(slots_ + at)) T(std::forward<Args>(args)...);
      head_ = at;
    }
    ++size_;
    return front();
  }
  void push_front(T&& v) { emplace_front(std::move(v)); }
  void push_front(const T& v) { emplace_front(v); }

  /// Inserts `v` before `pos`, moving the elements behind it one slot
  /// back: O(distance to the back), for keeping a sorted ring sorted when
  /// an element arrives out of order. Invalidates iterators like a push.
  iterator insert(const_iterator pos, T v) {
    const size_t i = static_cast<size_t>(pos - std::as_const(*this).begin());
    emplace_back(std::move(v));
    std::rotate(begin() + static_cast<std::ptrdiff_t>(i), end() - 1, end());
    return begin() + static_cast<std::ptrdiff_t>(i);
  }

  /// Destroys the front element, then halves the array if it is now
  /// under a quarter full (and above kMinCapacity).
  void pop_front() {
    assert(size_ != 0 && "pop_front on an empty RingQueue");
    std::destroy_at(&front());
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
    if (cap_ > kMinCapacity && size_ < cap_ / 4) {
      relocate(alloc_traits::allocate(alloc_, cap_ / 2), cap_ / 2, 0);
    }
  }

  /// Destroys every element and releases the storage.
  void clear() {
    for (size_t i = 0; i < size_; ++i) std::destroy_at(&(*this)[i]);
    if (slots_ != nullptr) alloc_traits::deallocate(alloc_, slots_, cap_);
    slots_ = nullptr;
    cap_ = 0;
    head_ = 0;
    size_ = 0;
  }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  using alloc_traits = std::allocator_traits<std::allocator<T>>;
  // relocate() moves elements one by one and cannot undo a throw.
  static_assert(std::is_nothrow_move_constructible_v<T>);

  /// Doubles the array (or makes the first one), building the new
  /// element at slot `at` of the new array before the old ones move to
  /// slots from `offset` on: `args` may refer to an element of this ring.
  template <typename... Args>
  void grow(size_t at, size_t offset, Args&&... args) {
    const size_t cap = cap_ == 0 ? kMinCapacity : cap_ * 2;
    T* fresh = alloc_traits::allocate(alloc_, cap);
    try {
      ::new (static_cast<void*>(fresh + at)) T(std::forward<Args>(args)...);
    } catch (...) {
      alloc_traits::deallocate(alloc_, fresh, cap);
      throw;
    }
    relocate(fresh, cap, offset);
  }

  /// Moves the elements, front first, into `fresh` (capacity `cap`)
  /// starting at slot `at`, and frees the old array.
  void relocate(T* fresh, size_t cap, size_t at) {
    for (size_t i = 0; i < size_; ++i) {
      T& old = (*this)[i];
      ::new (static_cast<void*>(fresh + at + i)) T(std::move(old));
      std::destroy_at(&old);
    }
    if (slots_ != nullptr) alloc_traits::deallocate(alloc_, slots_, cap_);
    slots_ = fresh;
    cap_ = cap;
    head_ = 0;
  }

  template <bool Const>
  class Iter {
    using Ring = std::conditional_t<Const, const RingQueue, RingQueue>;

   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;

    Iter() = default;
    Iter(Ring* ring, size_t i) : ring_(ring), i_(i) {}
    /// iterator -> const_iterator.
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& o) : ring_(o.ring_), i_(o.i_) {}

    reference operator*() const { return (*ring_)[i_]; }
    pointer operator->() const { return &(*ring_)[i_]; }
    reference operator[](difference_type n) const {
      return (*ring_)[i_ + static_cast<size_t>(n)];
    }

    Iter& operator++() {
      ++i_;
      return *this;
    }
    Iter operator++(int) {
      Iter t = *this;
      ++i_;
      return t;
    }
    Iter& operator--() {
      --i_;
      return *this;
    }
    Iter operator--(int) {
      Iter t = *this;
      --i_;
      return t;
    }
    Iter& operator+=(difference_type n) {
      i_ += static_cast<size_t>(n);
      return *this;
    }
    Iter& operator-=(difference_type n) {
      i_ -= static_cast<size_t>(n);
      return *this;
    }
    friend Iter operator+(Iter it, difference_type n) { return it += n; }
    friend Iter operator+(difference_type n, Iter it) { return it += n; }
    friend Iter operator-(Iter it, difference_type n) { return it -= n; }
    friend difference_type operator-(const Iter& a, const Iter& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.i_ == b.i_;
    }
    friend auto operator<=>(const Iter& a, const Iter& b) {
      return a.i_ <=> b.i_;
    }

   private:
    friend class Iter<!Const>;
    Ring* ring_ = nullptr;
    size_t i_ = 0;
  };

  [[no_unique_address]] std::allocator<T> alloc_;
  T* slots_ = nullptr;
  size_t cap_ = 0;   ///< 0 or a power of two
  size_t head_ = 0;  ///< slot of the front element
  size_t size_ = 0;
};

}  // namespace mptcp
