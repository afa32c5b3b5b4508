// Michael's lock-free list with hazard-pointer reclamation: nodes are
// retired at unlink time and physically freed during the run, unlike
// the paper variants' end-of-run arena. This is the price the paper's
// §2 says the mild improvements would tolerate; bench_grid measures
// it (`--ids hp_michael`). The slot/retire/scan machinery lives in reclaim::Hp, shared with
// the `<variant>/hp` catalog combinations.
//
// Protocol (Michael, PODC'02/TPDS'04): three hazard pointers per
// handle -- slot 0 the current node, slot 1 its successor, slot 2 the
// predecessor node owning the `prev` cell. Every protection is
// published then revalidated against the shared cell before use; any
// mismatch restarts from the head (this list is draconic by
// construction, as Michael's must be).
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/iset.hpp"
#include "src/core/list_base.hpp"
#include "src/reclaim/hp.hpp"
#include "src/reclaim/maybe_owned.hpp"

namespace pragmalist::baselines {

class HpMichaelList {
  struct Node {
    long key;
    core::MarkPtr<Node> next;
    Node* reg_next = nullptr;  // leftover-stack linkage, not an arena

    explicit Node(long k, Node* succ = nullptr) : key(k), next(succ) {}
  };

  using Domain = reclaim::Hp<Node>;

 public:
  /// Shared-domain aliases, same shape as the paper-variant engines, so
  /// shard::ShardedSet can run N Michael lists against one slot table.
  using Reclaim = Domain;
  using ReclaimHandle = Domain::Handle;

  class Handle {
   public:
    bool add(long key) {
      ++ctr_.add_calls;
      const bool ok = list_->do_add(*this, key);
      ctr_.adds += ok;
      return ok;
    }
    bool remove(long key) {
      ++ctr_.rem_calls;
      const bool ok = list_->do_remove(*this, key);
      ctr_.rems += ok;
      return ok;
    }
    bool contains(long key) {
      ++ctr_.con_calls;
      const bool ok = list_->do_contains(*this, key);
      ctr_.cons += ok;
      return ok;
    }
    long range_scan(long lo, long hi, const core::KeySink& sink) {
      return core::counted_range_scan(*this, ctr_, lo, hi, sink);
    }
    std::vector<long> ascend(long from, std::size_t limit) {
      return core::counted_ascend(*this, ctr_, from, limit);
    }
    /// Uncounted paging primitive for the sharded k-way merge. Runs the
    /// shared re-anchoring hazard scan (slots 0-2; Michael's find uses
    /// the same cells, never concurrently on one handle). The scan
    /// steps over marked nodes -- safe under the anchored-validation
    /// argument even though this list's updates are draconic.
    long scan_raw(long from, long hi, long limit,
                  const core::KeySink& sink) {
      return core::scan::hazard_scan(*rh_, list_->head_, from, hi, limit,
                                     sink);
    }
    const core::OpCounters& counters() const { return ctr_; }

    Handle(Handle&&) = default;  // MaybeOwned re-seats its pointer
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

   private:
    friend class HpMichaelList;
    Handle(HpMichaelList* list, Domain::Handle rh)  // owning
        : list_(list), rh_(std::move(rh)) {}
    Handle(HpMichaelList* list, Domain::Handle* rh)  // borrowing
        : list_(list), rh_(rh) {}

    HpMichaelList* list_;
    reclaim::MaybeOwned<Domain::Handle> rh_;
    core::OpCounters ctr_;
  };

  explicit HpMichaelList(std::shared_ptr<Domain> domain = nullptr)
      : domain_(domain ? std::move(domain) : std::make_shared<Domain>()),
        head_(new Node(std::numeric_limits<long>::min())) {
    domain_->track(head_);
  }
  HpMichaelList(const HpMichaelList&) = delete;
  HpMichaelList& operator=(const HpMichaelList&) = delete;

  ~HpMichaelList() {
    // All handles are gone by now; the domain frees parked retirees,
    // the still-linked chain (live or marked) is ours.
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next.load().ptr;
      delete n;
      n = next;
    }
  }

  Handle make_handle() { return Handle(this, domain_->make_handle()); }

  /// Sharded use: borrow a per-thread reclaim handle leased from this
  /// list's (shared) domain.
  Handle make_handle(ReclaimHandle& shared) { return Handle(this, &shared); }

  bool validate(std::string* err) const {
    return core::quiescent::validate_chain(head_, domain_->live_nodes() + 1,
                                           err);
  }
  std::size_t size() const { return core::quiescent::size(head_); }
  std::vector<long> snapshot() const {
    return core::quiescent::snapshot(head_);
  }
  std::size_t allocated_nodes() const { return domain_->live_nodes(); }
  std::size_t limbo_nodes() const { return domain_->limbo_nodes(); }

 private:
  struct Pos {
    core::MarkPtr<Node>* prev;  // cell, protected via slot 2 unless head
    Node* cur;                  // protected via slot 0
    Node* succ;                 // protected via slot 1
  };

  /// Michael's find: returns with cur == first node with key >= target
  /// (or nullptr), *prev observed == cur, and hazards covering
  /// pred/cur/succ.
  Pos find(Handle& h, long key) {
    auto& rh = *h.rh_;
  try_again:
    core::MarkPtr<Node>* prev = &head_->next;
    rh.clear(2);  // pred is the head
    Node* cur = prev->load().ptr;
    for (;;) {
      if (cur == nullptr) return {prev, nullptr, nullptr};
      rh.protect(0, cur);
      {
        const auto v = prev->load();
        if (v.ptr != cur || v.marked) goto try_again;  // cur unprotected
      }
      const auto nv = cur->next.load();
      rh.protect(1, nv.ptr);
      const auto nv2 = cur->next.load();
      if (nv2.ptr != nv.ptr || nv2.marked != nv.marked) goto try_again;
      if (nv.marked) {
        if (!prev->cas_clean(cur, nv.ptr)) goto try_again;
        h.rh_->retire(cur);
        cur = nv.ptr;  // still protected by slot 1; re-pinned at loop top
        continue;
      }
      if (cur->key >= key) return {prev, cur, nv.ptr};
      prev = &cur->next;
      rh.protect(2, cur);  // protect the pred
      cur = nv.ptr;  // protected by slot 1; slot 0 re-pinned at loop top
    }
  }

  bool do_add(Handle& h, long key) {
    Node* node = nullptr;
    for (;;) {
      const Pos p = find(h, key);
      if (p.cur != nullptr && p.cur->key == key) {
        delete node;  // not yet published, private
        return false;
      }
      if (node == nullptr)
        node = new Node(key, p.cur);
      else
        node->next.store(p.cur);
      if (p.prev->cas_clean(p.cur, node)) {
        domain_->track(node);
        return true;
      }
    }
  }

  bool do_remove(Handle& h, long key) {
    for (;;) {
      const Pos p = find(h, key);
      if (p.cur == nullptr || p.cur->key != key) return false;
      if (!p.cur->next.cas_mark(p.succ)) continue;  // raced; re-find
      if (p.prev->cas_clean(p.cur, p.succ))
        h.rh_->retire(p.cur);
      else
        find(h, key);  // help: the next find sweeps and retires it
      return true;
    }
  }

  bool do_contains(Handle& h, long key) {
    const Pos p = find(h, key);
    return p.cur != nullptr && p.cur->key == key;
  }

  std::shared_ptr<Domain> domain_;
  Node* head_;
};

}  // namespace pragmalist::baselines
