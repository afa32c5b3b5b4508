// Umbrella header: the six paper variants (a-f) plus the ablation-only
// configurations, exactly as the bench layer names them -- every one an
// instantiation of the single ListFamily engine (list_family.hpp).
//
//   a) DraconicList        e) SinglyFetchOrList
//   b) SinglyList          f) DoublyCursorList
//   c) DoublyList             SinglyCursorBackoffList (ablation)
//   d) SinglyCursorList       DoublyCursorNoPrecList  (ablation)
//
// Each variant also exists under real mid-run reclamation (catalog ids
// `<variant>/ebr` and `<variant>/hp`); the `With` alias templates below
// spell the grid out once so the catalog and tests can name any cell.
#pragma once

#include "src/core/iset.hpp"
#include "src/core/list_family.hpp"
#include "src/reclaim/reclaim.hpp"

namespace pragmalist::core {

template <template <typename> class R>
using DraconicListWith = ListFamily<Traversal::kDraconic, Marking::kCas,
                                    Cursor::kNone, Backoff::kNone, Back::kNone,
                                    R>;
template <template <typename> class R>
using SinglyListWith = ListFamily<Traversal::kMild, Marking::kCas,
                                  Cursor::kNone, Backoff::kNone, Back::kNone,
                                  R>;
template <template <typename> class R>
using DoublyListWith = ListFamily<Traversal::kMild, Marking::kCas,
                                  Cursor::kNone, Backoff::kNone,
                                  Back::kPrecise, R>;
template <template <typename> class R>
using SinglyCursorListWith =
    ListFamily<Traversal::kMild, Marking::kCas, Cursor::kPerHandle,
               Backoff::kNone, Back::kNone, R>;
template <template <typename> class R>
using SinglyFetchOrListWith =
    ListFamily<Traversal::kMild, Marking::kFetchOr, Cursor::kPerHandle,
               Backoff::kNone, Back::kNone, R>;
template <template <typename> class R>
using DoublyCursorListWith =
    ListFamily<Traversal::kMild, Marking::kCas, Cursor::kPerHandle,
               Backoff::kNone, Back::kPrecise, R>;

using DraconicList = DraconicListWith<reclaim::Arena>;
using SinglyList = SinglyListWith<reclaim::Arena>;
using DoublyList = DoublyListWith<reclaim::Arena>;
using SinglyCursorList = SinglyCursorListWith<reclaim::Arena>;
using SinglyFetchOrList = SinglyFetchOrListWith<reclaim::Arena>;
using DoublyCursorList = DoublyCursorListWith<reclaim::Arena>;

// Ablation-only (arena): one knob each away from a paper variant.
using SinglyCursorBackoffList =
    ListFamily<Traversal::kMild, Marking::kCas, Cursor::kPerHandle,
               Backoff::kExponential, Back::kNone>;
using DoublyCursorNoPrecList =
    ListFamily<Traversal::kMild, Marking::kCas, Cursor::kPerHandle,
               Backoff::kNone, Back::kImprecise>;

using DraconicListEbr = DraconicListWith<reclaim::Ebr>;
using SinglyListEbr = SinglyListWith<reclaim::Ebr>;
using DoublyListEbr = DoublyListWith<reclaim::Ebr>;
using SinglyCursorListEbr = SinglyCursorListWith<reclaim::Ebr>;
using SinglyFetchOrListEbr = SinglyFetchOrListWith<reclaim::Ebr>;
using DoublyCursorListEbr = DoublyCursorListWith<reclaim::Ebr>;

using DraconicListHp = DraconicListWith<reclaim::Hp>;
using SinglyListHp = SinglyListWith<reclaim::Hp>;
using DoublyListHp = DoublyListWith<reclaim::Hp>;
using SinglyCursorListHp = SinglyCursorListWith<reclaim::Hp>;
using SinglyFetchOrListHp = SinglyFetchOrListWith<reclaim::Hp>;
using DoublyCursorListHp = DoublyCursorListWith<reclaim::Hp>;

// The progress-guarantee matrix of iset.hpp, made compile-time law.
// Every mild variant's contains is CAS-free under every reclaimer; on
// arena/EBR it is additionally restart-free -- one forward pass by
// construction. A change that adds a CAS or a retry loop to those
// paths must flip the engine's trait and fails right here, instead of
// showing up as a latency regression three benches later.
static_assert(SinglyList::kContainsCasFree &&
                  SinglyListEbr::kContainsCasFree &&
                  SinglyListHp::kContainsCasFree,
              "mild singly contains must stay CAS-free");
static_assert(SinglyList::kContainsRestartFree &&
                  SinglyListEbr::kContainsRestartFree,
              "arena/EBR singly contains must stay restart-free");
static_assert(!SinglyListHp::kContainsRestartFree,
              "HP contains is bounded-restart, not restart-free");
static_assert(SinglyCursorList::kContainsRestartFree &&
                  SinglyFetchOrList::kContainsRestartFree &&
                  SinglyCursorListEbr::kContainsRestartFree &&
                  SinglyFetchOrListEbr::kContainsRestartFree &&
                  SinglyCursorBackoffList::kContainsRestartFree,
              "cursor/fetch-or/backoff variants share the mild fast lane");
static_assert(!DraconicList::kContainsCasFree &&
                  !DraconicListEbr::kContainsCasFree &&
                  !DraconicListHp::kContainsCasFree,
              "draconic readers help unlink: CAS by design");
static_assert(DoublyList::kContainsCasFree &&
                  DoublyListEbr::kContainsCasFree &&
                  DoublyListHp::kContainsCasFree &&
                  DoublyCursorList::kContainsRestartFree &&
                  DoublyCursorListEbr::kContainsRestartFree &&
                  DoublyCursorNoPrecList::kContainsRestartFree &&
                  !DoublyCursorListHp::kContainsRestartFree,
              "doubly variants: always mild, restart-free off hazards");

}  // namespace pragmalist::core
