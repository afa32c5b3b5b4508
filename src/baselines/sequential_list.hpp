// Sequential (single-threaded) ordered lists: the oracles for the
// correctness tests and the lower bound for the thread-private bench
// (what a list costs when you pay for no atomics at all).
//
// SequentialList is the plain sorted singly-linked list;
// SequentialCursorList adds the same last-position cursor the lock-free
// cursor variants use, so cursor *semantics* can be checked against it
// operation by operation.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/iset.hpp"

namespace pragmalist::baselines {

/// Emit the keys of a sorted chain in [from, hi] ascending, at most
/// `limit` (< 0 = unbounded); returns the number emitted.
template <typename Node>
long scan_chain(const Node* head, long from, long hi, long limit,
                const core::KeySink& sink) {
  long emitted = 0;
  for (const Node* n = head; n != nullptr; n = n->next) {
    if (n->key > hi || (limit >= 0 && emitted >= limit)) break;
    if (n->key >= from) {
      sink(n->key);
      ++emitted;
    }
  }
  return emitted;
}

class SequentialList {
  struct Node {
    long key;
    Node* next;
  };

 public:
  SequentialList() = default;
  SequentialList(SequentialList&& o) noexcept
      : head_(std::exchange(o.head_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  SequentialList(const SequentialList&) = delete;
  SequentialList& operator=(const SequentialList&) = delete;
  ~SequentialList() { clear(); }

  bool add(long key) {
    Node** slot = lower_bound(key);
    if (*slot != nullptr && (*slot)->key == key) return false;
    *slot = new Node{key, *slot};
    ++size_;
    return true;
  }

  bool remove(long key) {
    Node** slot = lower_bound(key);
    Node* n = *slot;
    if (n == nullptr || n->key != key) return false;
    *slot = n->next;
    delete n;
    --size_;
    return true;
  }

  bool contains(long key) {
    const Node* n = head_;
    while (n != nullptr && n->key < key) n = n->next;
    return n != nullptr && n->key == key;
  }

  std::size_t size() const { return size_; }

  /// The scan oracle for the concurrent structures' scans (and the
  /// walk behind snapshot() and CoarseLockList's scans); core::Counted
  /// counts it like theirs.
  long scan_raw(long from, long hi, long limit,
                const core::KeySink& sink) const {
    return scan_chain(head_, from, hi, limit, sink);
  }

  std::vector<long> snapshot() const {
    std::vector<long> keys;
    scan_raw(std::numeric_limits<long>::min(),
             std::numeric_limits<long>::max(), /*limit=*/-1,
             [&](long k) { keys.push_back(k); });
    return keys;
  }

  bool validate(std::string* err) const {
    const Node* prev = nullptr;
    std::size_t count = 0;
    for (const Node* n = head_; n != nullptr; n = n->next) {
      if (prev != nullptr && n->key <= prev->key) {
        if (err) *err = "sequential list out of order";
        return false;
      }
      prev = n;
      ++count;
    }
    if (count != size_) {
      if (err) *err = "sequential list size mismatch";
      return false;
    }
    return true;
  }

 private:
  Node** lower_bound(long key) {
    Node** slot = &head_;
    while (*slot != nullptr && (*slot)->key < key) slot = &(*slot)->next;
    return slot;
  }

  void clear() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next;
      delete n;
      n = next;
    }
    head_ = nullptr;
    size_ = 0;
  }

  Node* head_ = nullptr;
  std::size_t size_ = 0;
};

/// SequentialList plus the cursor optimisation: searches whose key is
/// at or past the remembered position start there instead of at the
/// head. The externally observable set semantics are identical to
/// SequentialList; only the traversal cost differs — which is exactly
/// what makes it the oracle for the cursor regression test.
class SequentialCursorList {
  struct Node {
    long key;
    Node* next;
  };

 public:
  SequentialCursorList() = default;
  SequentialCursorList(SequentialCursorList&& o) noexcept
      : head_(std::exchange(o.head_, nullptr)),
        cursor_(std::exchange(o.cursor_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  SequentialCursorList(const SequentialCursorList&) = delete;
  SequentialCursorList& operator=(const SequentialCursorList&) = delete;
  ~SequentialCursorList() { clear(); }

  bool add(long key) {
    Node* prev = start_for(key);
    Node* cur = prev == nullptr ? head_ : prev->next;
    while (cur != nullptr && cur->key < key) {
      prev = cur;
      cur = cur->next;
    }
    if (cur != nullptr && cur->key == key) {
      cursor_ = cur;
      return false;
    }
    Node* n = new Node{key, cur};
    if (prev == nullptr)
      head_ = n;
    else
      prev->next = n;
    cursor_ = n;
    ++size_;
    return true;
  }

  bool remove(long key) {
    Node* prev = start_for(key);
    Node* cur = prev == nullptr ? head_ : prev->next;
    while (cur != nullptr && cur->key < key) {
      prev = cur;
      cur = cur->next;
    }
    if (cur == nullptr || cur->key != key) {
      cursor_ = prev;
      return false;
    }
    if (prev == nullptr)
      head_ = cur->next;
    else
      prev->next = cur->next;
    cursor_ = prev;
    delete cur;
    --size_;
    return true;
  }

  bool contains(long key) {
    Node* prev = start_for(key);
    Node* cur = prev == nullptr ? head_ : prev->next;
    while (cur != nullptr && cur->key < key) {
      prev = cur;
      cur = cur->next;
    }
    cursor_ = prev;
    return cur != nullptr && cur->key == key;
  }

  std::size_t size() const { return size_; }

  /// SequentialList::scan_raw; scans never move the cursor.
  long scan_raw(long from, long hi, long limit,
                const core::KeySink& sink) const {
    return scan_chain(head_, from, hi, limit, sink);
  }

  std::vector<long> snapshot() const {
    std::vector<long> keys;
    scan_raw(std::numeric_limits<long>::min(),
             std::numeric_limits<long>::max(), /*limit=*/-1,
             [&](long k) { keys.push_back(k); });
    return keys;
  }

  bool validate(std::string* err) const {
    const Node* prev = nullptr;
    std::size_t count = 0;
    for (const Node* n = head_; n != nullptr; n = n->next) {
      if (prev != nullptr && n->key <= prev->key) {
        if (err) *err = "sequential cursor list out of order";
        return false;
      }
      prev = n;
      ++count;
    }
    if (count != size_) {
      if (err) *err = "sequential cursor list size mismatch";
      return false;
    }
    return true;
  }

 private:
  /// Last node strictly before `key` usable as a start, or nullptr for
  /// "start at head". The cursor is only trusted when its key is
  /// smaller than the target; removal keeps it on the predecessor, so
  /// it never dangles.
  Node* start_for(long key) const {
    if (cursor_ != nullptr && cursor_->key < key) return cursor_;
    return nullptr;
  }

  void clear() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next;
      delete n;
      n = next;
    }
    head_ = nullptr;
    cursor_ = nullptr;
    size_ = 0;
  }

  Node* head_ = nullptr;
  Node* cursor_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace pragmalist::baselines
