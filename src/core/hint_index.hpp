// Wait-free shortcut-hint index: a fixed array of (key, node*) slots
// that lets a traversal start at a recently published node just below
// its target instead of at the head sentinel.
//
// Layout: kSlots range buckets in key order. Key k lives in slot
// k >> shift (clamped to the last slot; keys <= 0 all share slot 0 --
// still correct, only less precise). `shift` is derived from the input:
// publish grows it, monotonically, just far enough that the largest key
// ever published maps inside the array, so the buckets tile the key
// range actually in use. A lookup starts at its target's bucket and
// probes downward, so the first usable candidate is the nearest
// published node below the target, one bucket (~N/kSlots nodes) away
// at most -- not a random point in the key range.
//
// The slot pair is *routing data, never truth*: the key field is a
// relaxed, possibly-torn copy used only to pick a candidate, and every
// candidate must be re-validated by the caller -- key/mark check under
// the caller's existing reclamation cover (arena: addresses are
// stable; EBR: the op's epoch pin; HP: one kAnchor publish plus a slot
// re-read, see best()). A stale hint -- including one left in a bucket
// that a later shift growth re-assigned to other keys -- therefore
// costs one failed validation or a longer walk, never correctness.
//
// Lifecycle protocol (all slot accesses that matter are seq_cst; the
// safety argument needs the single total order S):
//
//   publish(n)     -- caller guarantees n is covered by its guard and
//     was observed unmarked during the current op. Store the slot
//     (node seq_cst), then RE-CHECK n's mark with a no-op RMW
//     (MarkPtr::load_rmw): an RMW reads the latest value in n->next's
//     modification order, so it cannot miss a concurrent mark the way
//     a plain load can. If marked, self-clear the slot (CAS n -> null)
//     while the guard still covers n.
//   purge(n)       -- the retiring thread clears every slot that can
//     hold n *before* retire(n)/leak(n). With publish-store, re-check
//     RMW and purge all seq_cst, either publish <S purge (the purge's
//     load sees n and clears it) or the re-check sees the mark (mark <S
//     purge <S publish <S re-check would order the re-check after the
//     mark) and the publisher self-clears. Both ways, no slot names n
//     once its retirement can free it -- except transiently while some
//     publisher's guard still pins n alive.
//   best(k, valid) -- probe from k's bucket down to slot 0, validating
//     each slot's candidate at most once, so lookup is wait-free:
//     <= kSlots validations regardless of concurrent writers.
//
// Which slots "can hold n": publish places n by n->key alone, in slot
// key >> p, where p is the shift the publisher read or installed. So
// purge reads shift_ once (seq_cst, value q) and clears
// slot_of(n->key, s) for every s from q down to 0 -- at most q + 1
// distinct slots, never a scan of the array. Shift growth is the only
// way n's bucket moves, and it cannot hide n from the purge:
//   * q >= p: the purge visits slot_of(n->key, p), the slot n was
//     placed in, and the publish-vs-purge argument above applies.
//   * q <  p: shift_ only grows, so the purge's shift read precedes in
//     S the store that raised shift_ to p, which the publisher read or
//     made before its slot store. Then mark <S shift read <S
//     publisher's shift access <S publish <S re-check, and the
//     re-check RMW sees the mark: the publisher self-clears.
//
// Why a validated hint is then safe to dereference, per reclaimer, is
// the engines' argument (docs/ARCHITECTURE.md "Read path"): the short
// version is that an HP reader re-reads the slot *after* its kAnchor
// publish (protect <S purge <S retire means the retirer's hazard scan
// sees the protection), and an EBR reader pinned late enough to allow
// the free must have pinned after an epoch advance that happens-after
// the purge, so it reads the cleared slot.
#pragma once

#include <algorithm>
#include <atomic>

#include "src/core/list_base.hpp"

namespace pragmalist::core {

template <typename Node>
class HintIndex {
 public:
  static constexpr int kSlotBits = 10;
  static constexpr int kSlots = 1 << kSlotBits;

  explicit HintIndex(bool enabled = true) : enabled_(enabled) {}
  HintIndex(const HintIndex&) = delete;
  HintIndex& operator=(const HintIndex&) = delete;

  /// Runtime off-switch: the catalog's `/nohint` twin ids construct the
  /// engine with hints disabled so the A/B pricing is a pure read-path
  /// diff (same binary, same layout, no publish/lookup traffic).
  bool enabled() const { return enabled_; }

  /// Publish n into the bucket of its (immutable) key, first growing
  /// `shift` if the key lies past the range the buckets cover. Caller
  /// contract: n is covered by the caller's reclamation guard for the
  /// whole call and was observed unmarked during the current operation.
  /// See file comment for the re-check/self-clear rule.
  void publish(Node* n) {
    if (!enabled_ || n == nullptr) return;
    const long key = n->key;
    Slot& s = slots_[slot_of(key, grow_shift(key))];
    s.key.store(key, std::memory_order_relaxed);
    s.node.store(n, std::memory_order_seq_cst);
    if (n->next.load_rmw().marked) {
      // n died before (or while) we advertised it: withdraw the hint
      // ourselves -- the retirer's purge may already have run and
      // missed our store. The guard still covers n, so the RMW above
      // and this CAS never touch freed memory.
      Node* expected = n;
      s.node.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_seq_cst,
                                     std::memory_order_relaxed);
    }
  }

  /// Clear every slot naming n. MUST run before every retire(n) /
  /// leak(n) of a node that may ever have been published (engines call
  /// it on every retirement path). Visits n's bucket under the current
  /// shift and under every smaller one -- the only slots a publish can
  /// have placed n in (file comment) -- so it costs <= shift + 1 slots.
  void purge(Node* n) {
    if (n == nullptr) return;
    const long key = n->key;
    int last = -1;
    for (int sh = shift_.load(std::memory_order_seq_cst); sh >= 0; --sh) {
      const int i = slot_of(key, sh);
      if (i == last) continue;  // slot_of is monotone in sh: repeats adjoin
      last = i;
      Slot& s = slots_[i];
      if (s.node.load(std::memory_order_seq_cst) != n) continue;
      Node* expected = n;
      s.node.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_seq_cst,
                                     std::memory_order_relaxed);
    }
  }

  /// Nearest validated candidate below `key`, or nullptr (start from
  /// the head). Probes key's bucket, then each lower one, skipping
  /// empty slots and routing keys >= key. `valid(n, slot)` runs the
  /// caller's validation -- key/mark check under its guard; HP callers
  /// additionally kAnchor-protect n and re-read slot_node(slot) == n
  /// before dereferencing. One validation per slot at most (decay
  /// chain: next lower bucket, then head), so the lookup is wait-free.
  template <typename Validate>
  Node* best(long key, Validate&& valid) const {
    if (!enabled_) return nullptr;
    for (int i = slot_of(key, shift_.load(std::memory_order_relaxed));
         i >= 0; --i) {
      // The node load must synchronize with the publisher's seq_cst
      // store: validation dereferences plain fields (key, the node's
      // construction), and the publish store is the only edge that
      // orders them after the node's initialization for a reader that
      // never walked to n. The routing key stays relaxed -- it is
      // never dereferenced, only compared (the real check is on n->key
      // during validation; the routing key only prunes).
      Node* n = slots_[i].node.load(std::memory_order_seq_cst);
      if (n == nullptr) continue;
      if (slots_[i].key.load(std::memory_order_relaxed) >= key) continue;
      if (valid(n, i)) return n;
    }
    return nullptr;
  }

  /// Seq_cst slot re-read for the HP validation handshake: a reader
  /// that protected n and still sees it here is ordered before any
  /// purge of n, hence before the retire that could free it.
  Node* slot_node(int slot) const {
    return slots_[slot].node.load(std::memory_order_seq_cst);
  }

 private:
  // Compact 16 B slots, 16 KB per engine: a purge touches only its
  // key's few buckets, so the array can be wide enough that a bucket
  // holds a handful of live nodes.
  struct Slot {
    std::atomic<long> key{0};
    std::atomic<Node*> node{nullptr};
  };

  static int slot_of(long key, int shift) {
    if (key <= 0) return 0;
    return static_cast<int>(std::min<long>(key >> shift, kSlots - 1));
  }

  /// Raise shift (never lower it) until key >> shift < kSlots; returns
  /// the shift to place key with. Bounded: every failed CAS means
  /// another publisher raised shift, which can happen at most
  /// 63 - kSlotBits times. Seq_cst, so the purge's shift read and this
  /// access are ordered in S (file comment, case q < p).
  int grow_shift(long key) {
    int need = 0;
    if (key >= kSlots) {
      const int width = 64 - __builtin_clzl(static_cast<unsigned long>(key));
      need = width - kSlotBits;
    }
    int cur = shift_.load(std::memory_order_seq_cst);
    while (cur < need && !shift_.compare_exchange_strong(
                             cur, need, std::memory_order_seq_cst)) {
    }
    return std::max(cur, need);
  }

  Slot slots_[kSlots];
  std::atomic<int> shift_{0};
  const bool enabled_;
};

/// Validated hint-index candidate for a traversal toward `key`, or
/// nullptr: the read side both list engines share. Arena/EBR flavor:
/// key/mark check only (arena addresses are stable; under EBR the
/// caller's pin plus the purge/advance ordering keep a slot-visible
/// node allocated -- file comment). HP flavor: kAnchor-protect the
/// candidate, then re-read the slot seq_cst -- still naming it means
/// the protection is ordered before any purge, hence before the retire
/// that could free it -- then the same key/mark check. Either way the
/// candidate stays covered through the caller's start-node pick. Back
/// pointers are irrelevant here: a hint is validated forward like any
/// anchor (for the unrolled engine, an unmarked fat node whose anchor
/// is below `key` is a correct routing start).
template <bool kHazards, typename Node, typename ReclaimHandle>
Node* hint_start(const HintIndex<Node>& hints,
                 [[maybe_unused]] ReclaimHandle& rh, long key) {
  if constexpr (kHazards) {
    return hints.best(key, [&](Node* n, int slot) {
      rh.protect(hazard::kAnchor, n);
      if (hints.slot_node(slot) != n) return false;
      return n->key < key && !n->next.load().marked;
    });
  } else {
    return hints.best(key, [&](Node* n, int) {
      return n->key < key && !n->next.load().marked;
    });
  }
}

/// Advertise `n` in the hint index, 1 op in 8 per handle (`tick` is
/// the handle's counter): the slots go stale in well under 8 ops' time
/// only under adversarial churn, and the publish is two seq_cst
/// accesses -- too dear for every contains. Caller contract
/// (HintIndex::publish): n covered by the caller's guard (HP: a hazard
/// slot) and observed unmarked during this op. The head sentinel is
/// never advertised.
template <typename Node>
void maybe_publish(HintIndex<Node>& hints, unsigned& tick, const Node* head,
                   Node* n) {
  if (!hints.enabled()) return;
  if (n == nullptr || n == head) return;
  if ((++tick & 7u) != 0) return;
  hints.publish(n);
}

}  // namespace pragmalist::core
