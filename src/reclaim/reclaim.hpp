// Pluggable safe memory reclamation for the list variants.
//
// Every policy is a class template over the node type and exposes the
// same duck-typed surface, so the list engines can be parameterized on
// a `template <typename> class ReclaimPolicy` and select code paths
// with `if constexpr` on the policy's capability constants. The
// bookkeeping (pool, node counters, fault ledgers, slot leasing, the
// handle's slot cache) is one core, domain.hpp; each policy adds only
// its protocol:
//
//   Arena -- the registry that frees every tracked node at teardown.
//   Ebr   -- epoch pin, three rotating limbo bags, adaptive collect
//            cadence, the orphan pool; blast_stats() adds horizon_lag.
//   Hp    -- hazard cells, scan, the orphan stack, cursor_owner;
//            blast_stats() adds leaked_cells.
//
// The capability constants:
//
//   static constexpr bool kStableAddresses;
//       Nodes are never freed (or reused) while the list is alive, so
//       raw node pointers stay dereferenceable across operations. Only
//       the arena guarantees this; it is what makes per-handle cursors
//       and the doubly variants' back-pointer hints safe without any
//       per-access protection.
//   static constexpr bool kHazards;
//       Traversals must publish a hazard pointer on every node before
//       dereferencing it and revalidate reachability afterwards (see
//       list_base.hpp for the anchored-validation walk). Implies
//       per-access cost but per-thread bounded garbage.
//   static constexpr bool kReclaims;
//       retire() eventually frees nodes mid-run. When true the list
//       must retire every node it physically detaches and must free the
//       still-linked chain itself on destruction; when false the policy
//       owns every tracked node and frees the lot when it dies.
//
//   Handle make_handle();        // per-thread, move-only, released on
//                                // destruction; must not outlive the
//                                // policy object. Slots are re-leased:
//                                // a departed handle's slot (and its
//                                // hazard cells) may be handed to a
//                                // later arrival, see hp.hpp
//   void track(Node* n);         // called once per *published* node
//   std::size_t live_nodes();    // tracked minus freed: the node
//                                // footprint the churn tests bound
//   std::size_t limbo_nodes();   // retired but not yet freed -- the
//                                // limbo depth the soak harness
//                                // samples (always 0 for the arena)
//
// Per-thread Handle surface:
//   static constexpr bool kHazards, kReclaims;  // the policy's, so
//                                // code holding only a handle
//                                // (core::walk, core::retire_run) can
//                                // branch on them
//   auto guard();                // RAII critical section around one
//                                // operation (epoch pin for EBR, no-op
//                                // otherwise)
//   void retire(Node* n);        // n is detached and will never be
//                                // reached again except through stale
//                                // protected pointers; free it once no
//                                // reader can hold it
//   void collect();              // reclaiming policies only: force a
//                                // free pass now (departing service
//                                // workers, tests)
//   void protect(int slot, Node* n);  // hazard policies only
//   void clear(int slot);             //
//
// Fault-injection surface (src/faults/faults.hpp): every Handle has
//   void abandon(faults::FaultKind);  // the owner crashed: skip the
//                                     // departure protocol, possibly
//                                     // with a guard/cell still held;
//                                     // the handle is dead afterwards
// and Handle::leak(Node*) (a retire-skipped node the domain
// attributes; deleted on the arena, whose registry already owns it).
// Every domain has
// reap_crashed() / blast_stats() for supervisor recovery and the
// blast-radius metrics. Engines expose their domain through one
// `Reclaim& domain() const` accessor, and the catalog adapter reads
// live_nodes / limbo_nodes / reap_crashed / blast_stats off it with
// no policy branch. Arena's abandon only checks the kind and its
// reap/blast answers are 0 / all-zero -- it is fault-oblivious by
// construction.
//
// Each policy header states its progress guarantee, worst-case memory
// bound, and the traversal capabilities it demands of the engine.
//
// The retire contract every caller upholds: a node is retired by
// exactly one thread -- the one whose CAS physically detached it --
// and only after that CAS succeeded. Arena's retire is a no-op;
// nothing in the shared code assumes retire implies free.
//
// A policy instance is a *domain*, not a per-list resource: the list
// engines hold their domain through a shared_ptr, so any number of
// same-node-type lists (the shards of shard::ShardedSet) can run
// against one epoch clock / hazard-slot table / registry, and a
// worker thread leases ONE handle from the domain and lends it to
// every shard's engine handle (Engine::make_handle(ReclaimHandle&)).
// That keeps per-process reclamation state O(threads), never
// O(threads x shards).
#pragma once

#include "src/reclaim/arena.hpp"        // IWYU pragma: export
#include "src/reclaim/domain.hpp"       // IWYU pragma: export
#include "src/reclaim/ebr.hpp"          // IWYU pragma: export
#include "src/reclaim/hp.hpp"           // IWYU pragma: export
#include "src/reclaim/maybe_owned.hpp"  // IWYU pragma: export
