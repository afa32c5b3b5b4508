// Variant catalog: maps the string ids the bench binaries use to
// concrete structures, type-erased behind core::ISet.
//
// Paper variants (table rows a-f):
//   draconic, singly, doubly, singly_cursor, singly_fetch_or,
//   doubly_cursor
// Reclaimer combinations: every paper variant also exists as
//   `<variant>/ebr` and `<variant>/hp` (epoch-based and hazard-pointer
//   reclamation from src/reclaim/; the bare id is the paper's arena)
// Sharding: any paper variant or Michael baseline id -- with or
//   without a reclaimer segment -- additionally accepts a `/shN`
//   suffix (`singly/ebr/sh8`, `draconic/hp/sh16`, `singly_cursor/sh4`,
//   `hp_michael/sh8`): N hash-partitioned lists behind one set,
//   sharing one reclamation domain (src/shard/). Parsed dynamically,
//   any N in [1, 1024].
// Unrolled family: unrolled_k8 (+ /ebr, /hp, /shN) -- K=8 sorted keys
//   per cache-line-sized fat node; `unrolled-k8` is accepted as an
//   alias (dashes normalize to underscores).
// Node memory: engine ids allocate nodes from per-domain slabs
//   (src/alloc/) by default; appending a final `/heap` segment builds
//   the plain-malloc twin of the same id (`singly/ebr/heap`,
//   `unrolled_k8/hp/sh4/heap`). Non-engine structures ignore the mode.
// Ablation-only: doubly_cursor_noprec, singly_cursor_backoff
// Baselines: coarse_lock, lazy_lock, hp_michael, ebr_michael
// Structures: skiplist, skiplist_draconic
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "src/core/iset.hpp"

namespace pragmalist::harness {

/// Construct the structure registered under `id`; aborts with the list
/// of known ids on a typo.
std::unique_ptr<core::ISet> make_set(std::string_view id);

/// The six variants of the paper tables, in row order a-f.
const std::vector<std::string_view>& paper_variant_ids();

/// The five variants of the scaling figures (a, b, c, d, f).
const std::vector<std::string_view>& figure_variant_ids();

/// Every id make_set accepts (tests iterate this).
const std::vector<std::string_view>& all_variant_ids();

/// The `<variant>/<reclaimer>` grid: every paper variant under ebr and
/// hp reclamation (the stress tier and bench_soak iterate this).
const std::vector<std::string_view>& reclaim_variant_ids();

/// The sharded showcase grid: every `<variant>/<reclaimer>` id behind
/// a 4-way hash-sharded set (`<id>/sh4`). make_set accepts any
/// `<base>/shN`; this fixed list is what the stress tiers iterate.
const std::vector<std::string_view>& sharded_variant_ids();

/// Paper row letter for an id ("a".."f"), successive letters for the
/// baselines, "-" for anything unlettered.
std::string_view variant_letter(std::string_view id);

}  // namespace pragmalist::harness
