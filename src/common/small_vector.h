// Contiguous vector with small-buffer storage.
//
// Elements live in one contiguous array: inline up to InlineN, on the heap
// beyond.  Capacity never shrinks, so once a vector has held its
// working-set size, push_back, insert and erase never allocate.  It is the
// storage of FlatSet and of the lock manager's per-resource holder lists
// and FIFO queues, where a typical size is one to three elements.
//
// Restricted to trivially-copyable, default-constructible element types so
// growth and shifting stay simple copies; every id/edge type in this
// codebase qualifies.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <type_traits>

namespace cmh {

template <typename T, std::size_t InlineN>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::is_default_constructible_v<T>);
  static_assert(InlineN > 0);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() = default;

  SmallVector(const SmallVector& other) { assign(other.data_, other.size_); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.data_, other.size_);
    return *this;
  }

  SmallVector(SmallVector&& other) noexcept { steal(other); }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) steal(other);
    return *this;
  }

  ~SmallVector() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

  void clear() { size_ = 0; }

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    data_[size_++] = v;
  }

  /// Inserts `v` before `pos`; returns the position of the new element.
  iterator insert(const_iterator pos, const T& v) {
    const std::size_t idx = static_cast<std::size_t>(pos - data_);
    if (size_ == cap_) grow();  // invalidates pos
    std::copy_backward(data_ + idx, data_ + size_, data_ + size_ + 1);
    data_[idx] = v;
    ++size_;
    return data_ + idx;
  }

  /// Removes [first, last), shifting the tail down; order is preserved.
  iterator erase(const_iterator first, const_iterator last) {
    T* dst = data_ + (first - data_);
    const T* tail_end = data_ + size_;
    std::copy(last, tail_end, dst);
    size_ -= static_cast<std::size_t>(last - first);
    return dst;
  }

  iterator erase(const_iterator pos) { return erase(pos, pos + 1); }

  /// Removes every element matching `pred`; returns how many were removed.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    const std::size_t before = size_;
    erase(std::remove_if(begin(), end(), pred), end());
    return before - size_;
  }

 private:
  // cap_ >= InlineN always; the max() only tells the optimizer so (GCC 12
  // otherwise warns about a zero-length copy into a zero-length array).
  void grow() { reallocate(2 * std::max(cap_, InlineN)); }

  void reallocate(std::size_t new_cap) {
    // Growth path only; steady state never reaches here.
    auto fresh = std::make_unique<T[]>(new_cap);  // lint:allow(hot-path-alloc)
    std::copy(data_, data_ + size_, fresh.get());
    heap_ = std::move(fresh);
    data_ = heap_.get();
    cap_ = new_cap;
  }

  void assign(const T* src, std::size_t n) {
    if (n > cap_) reallocate(n);
    std::copy(src, src + n, data_);
    size_ = n;
  }

  void steal(SmallVector& other) {
    if (other.heap_) {
      heap_ = std::move(other.heap_);
      data_ = heap_.get();
      cap_ = other.cap_;
      size_ = other.size_;
    } else {
      heap_.reset();
      data_ = inline_.data();
      cap_ = InlineN;
      std::copy(other.data_, other.data_ + other.size_, data_);
      size_ = other.size_;
    }
    other.heap_.reset();
    other.data_ = other.inline_.data();
    other.cap_ = InlineN;
    other.size_ = 0;
  }

  std::array<T, InlineN> inline_{};
  std::unique_ptr<T[]> heap_;
  T* data_{inline_.data()};
  std::size_t size_{0};
  std::size_t cap_{InlineN};
};

}  // namespace cmh
