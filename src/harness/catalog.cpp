#include "src/harness/catalog.hpp"

#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "src/alloc/slab.hpp"
#include "src/baselines/locked_lists.hpp"
#include "src/baselines/michael_list.hpp"
#include "src/common/debug.hpp"
#include "src/core/unrolled_family.hpp"
#include "src/core/variants.hpp"
#include "src/shard/sharded_set.hpp"
#include "src/structures/skiplist.hpp"

namespace pragmalist::harness {
namespace {

// Structures backed by a reclaim domain (the engines, the Michael
// list, the sharded set) expose it as domain(); the adapter reads the
// footprint, limbo and blast-radius stats off it. The locked baselines
// and the skiplists have none and answer zeros.
template <typename T, typename = void>
struct HasDomain : std::false_type {};
template <typename T>
struct HasDomain<T, std::void_t<decltype(std::declval<const T&>().domain())>>
    : std::true_type {};

template <typename T, typename = void>
struct HasShardCount : std::false_type {};
template <typename T>
struct HasShardCount<
    T, std::void_t<decltype(std::declval<const T&>().shard_count())>>
    : std::true_type {};

/// Adapts any concrete structure with the
/// make_handle()/validate()/size()/snapshot() shape to core::ISet.
/// Owns its id as a string: sharded ids (`.../shN`) are composed at
/// parse time and have no static storage to point into.
template <typename Structure>
class SetAdapter final : public core::ISet {
  class HandleAdapter final : public core::ISetHandle {
   public:
    explicit HandleAdapter(typename Structure::Handle h)
        : h_(std::move(h)) {}
    bool add(long key) override { return h_.add(key); }
    bool remove(long key) override { return h_.remove(key); }
    bool contains(long key) override { return h_.contains(key); }
    long range_scan(long lo, long hi, const core::KeySink& sink) override {
      return h_.range_scan(lo, hi, sink);
    }
    std::vector<long> ascend(long from, std::size_t limit) override {
      return h_.ascend(from, limit);
    }
    core::OpCounters counters() const override { return h_.counters(); }
    void abandon(faults::FaultKind k, long key) override {
      if constexpr (core::HasAbandon<typename Structure::Handle>::value)
        h_.abandon(k, key);
    }

   private:
    typename Structure::Handle h_;
  };

 public:
  template <typename... Args>
  explicit SetAdapter(std::string id, Args&&... args)
      : id_(std::move(id)), inner_(std::forward<Args>(args)...) {}

  std::unique_ptr<core::ISetHandle> make_handle() override {
    return std::make_unique<HandleAdapter>(inner_.make_handle());
  }
  bool validate(std::string* err) const override {
    return inner_.validate(err);
  }
  std::size_t size() const override { return inner_.size(); }
  std::vector<long> snapshot() const override { return inner_.snapshot(); }
  std::size_t allocated_nodes() const override {
    if constexpr (HasDomain<Structure>::value)
      return inner_.domain().live_nodes();
    else
      return 0;
  }
  std::size_t limbo_nodes() const override {
    if constexpr (HasDomain<Structure>::value)
      return inner_.domain().limbo_nodes();
    else
      return 0;
  }
  std::size_t reap_crashed() override {
    if constexpr (HasDomain<Structure>::value)
      return inner_.domain().reap_crashed();
    else
      return 0;
  }
  faults::BlastStats blast_stats() const override {
    if constexpr (HasDomain<Structure>::value)
      return inner_.domain().blast_stats();
    else
      return {};
  }
  int shard_count() const override {
    if constexpr (HasShardCount<Structure>::value)
      return inner_.shard_count();
    else
      return 1;
  }
  std::vector<long> shard_ops() const override {
    if constexpr (HasShardCount<Structure>::value)
      return inner_.shard_ops();
    else
      return {};
  }
  std::vector<std::size_t> shard_sizes() const override {
    if constexpr (HasShardCount<Structure>::value)
      return inner_.shard_sizes();
    else
      return {};
  }
  std::string_view name() const override { return id_; }

 private:
  std::string id_;
  Structure inner_;
};

// Pool-allocating structures (the engines: Engine::kPoolAllocates,
// surfaced as an alloc::Mode constructor) honor the catalog's node-
// memory mode; everything else -- baselines, skiplist -- news its own
// nodes, so the mode is silently irrelevant for them. The hint-index
// switch (`/nohint`) is engine-only too, but NOT silently: a baseline
// has no hint index to disable, so asking for its `/nohint` twin would
// silently benchmark the baseline against itself -- reject instead.
template <typename Structure>
std::unique_ptr<core::ISet> make_adapter(std::string id, alloc::Mode mode,
                                         bool hints) {
  if constexpr (std::is_constructible_v<Structure, alloc::Mode, bool>) {
    return std::make_unique<SetAdapter<Structure>>(std::move(id), mode, hints);
  } else {
    PRAGMALIST_CHECK(
        hints, "'/nohint' needs an engine id: this structure has no hint "
               "index to disable");
    if constexpr (std::is_constructible_v<Structure, alloc::Mode>)
      return std::make_unique<SetAdapter<Structure>>(std::move(id), mode);
    else
      return std::make_unique<SetAdapter<Structure>>(std::move(id));
  }
}

// --- sharding: `<base>/shN` ids --------------------------------------
//
// A shardable row's id also accepts a `/shN` suffix and is then built
// as shard::ShardedSet<Engine> -- N hash-partitioned lists over one
// shared reclamation domain. Parsed dynamically so every N works; the
// fixed `sharded_variant_ids()` list below is what the test tiers and
// docs enumerate.
template <typename Engine>
std::unique_ptr<core::ISet> make_sharded_adapter(std::string id, int shards,
                                                 alloc::Mode mode,
                                                 bool hints) {
  static_assert(HasDomain<shard::ShardedSet<Engine>>::value,
                "the sharded set must expose its shared domain()");
  // ShardedSet clamps the mode to heap itself when the engine is not
  // pool-allocating, so passing it unconditionally is safe. The hint
  // switch is NOT clamped: a base with no hint index (the Michael
  // baselines) rejects `/nohint` rather than aliasing the hinted id.
  if constexpr (!std::is_constructible_v<
                    Engine, std::shared_ptr<typename Engine::Reclaim>, bool>)
    PRAGMALIST_CHECK(
        hints, "'/nohint' needs an engine base: this structure has no hint "
               "index to disable");
  return std::make_unique<SetAdapter<shard::ShardedSet<Engine>>>(
      std::move(id), shards, mode, hints);
}

struct Entry {
  std::string_view id;
  std::string_view letter;
  std::unique_ptr<core::ISet> (*make)(std::string id, alloc::Mode mode,
                                      bool hints);
  // nullptr when the id takes no `/shN` suffix.
  std::unique_ptr<core::ISet> (*make_sharded)(std::string id, int shards,
                                              alloc::Mode mode, bool hints);
};

/// A row whose id is also a `/shN` base. Sharding runs every shard
/// against one shared reclaim domain, so only a domain-backed
/// structure qualifies.
template <typename S>
constexpr Entry shardable(std::string_view id, std::string_view letter = "-") {
  static_assert(HasDomain<S>::value, "a shardable row needs a domain()");
  return {id, letter, &make_adapter<S>, &make_sharded_adapter<S>};
}

/// A row with no sharded form.
template <typename S>
constexpr Entry single(std::string_view id, std::string_view letter = "-") {
  return {id, letter, &make_adapter<S>, nullptr};
}

// The one registration list: every id make_set accepts, in the order
// the tests and docs enumerate them.
constexpr Entry kEntries[] = {
    shardable<core::DraconicList>("draconic", "a"),
    shardable<core::SinglyList>("singly", "b"),
    shardable<core::DoublyList>("doubly", "c"),
    shardable<core::SinglyCursorList>("singly_cursor", "d"),
    shardable<core::SinglyFetchOrList>("singly_fetch_or", "e"),
    shardable<core::DoublyCursorList>("doubly_cursor", "f"),
    single<core::DoublyCursorNoPrecList>("doubly_cursor_noprec"),
    single<core::SinglyCursorBackoffList>("singly_cursor_backoff"),
    // The variant x reclaimer grid: the paper rows under real mid-run
    // reclamation (the bare ids above are the paper's arena scheme).
    shardable<core::DraconicListEbr>("draconic/ebr"),
    shardable<core::SinglyListEbr>("singly/ebr"),
    shardable<core::DoublyListEbr>("doubly/ebr"),
    shardable<core::SinglyCursorListEbr>("singly_cursor/ebr"),
    shardable<core::SinglyFetchOrListEbr>("singly_fetch_or/ebr"),
    shardable<core::DoublyCursorListEbr>("doubly_cursor/ebr"),
    shardable<core::DraconicListHp>("draconic/hp"),
    shardable<core::SinglyListHp>("singly/hp"),
    shardable<core::DoublyListHp>("doubly/hp"),
    shardable<core::SinglyCursorListHp>("singly_cursor/hp"),
    shardable<core::SinglyFetchOrListHp>("singly_fetch_or/hp"),
    shardable<core::DoublyCursorListHp>("doubly_cursor/hp"),
    // Unrolled fat-node family: K=8 sorted keys per cache-line-sized
    // node (src/core/unrolled_family.hpp). Also reachable as
    // `unrolled-k8/...` (dashes normalize to underscores in make_set).
    shardable<core::UnrolledK8List>("unrolled_k8"),
    shardable<core::UnrolledK8ListEbr>("unrolled_k8/ebr"),
    shardable<core::UnrolledK8ListHp>("unrolled_k8/hp"),
    single<baselines::CoarseLockList>("coarse_lock", "g"),
    single<baselines::LazyLockList>("lazy_lock", "h"),
    shardable<baselines::HpMichaelList>("hp_michael", "i"),
    shardable<baselines::EbrMichaelList>("ebr_michael", "j"),
    single<structures::SkipList>("skiplist", "k"),
    single<structures::SkipListDraconic>("skiplist_draconic", "l"),
};

/// Split `<base>/shN` into base and shard count. Returns false when the
/// id has no well-formed `/sh<digits>` suffix.
bool split_sharded_id(std::string_view id, std::string_view* base,
                      int* shards) {
  const auto pos = id.rfind("/sh");
  if (pos == std::string_view::npos) return false;
  const std::string_view digits = id.substr(pos + 3);
  if (digits.empty() || digits.size() > 4) return false;
  int n = 0;
  for (const char ch : digits) {
    if (ch < '0' || ch > '9') return false;
    n = n * 10 + (ch - '0');
  }
  *base = id.substr(0, pos);
  *shards = n;
  return true;
}

std::unique_ptr<core::ISet> make_sharded_set(std::string_view id,
                                             std::string_view base,
                                             int shards, alloc::Mode mode,
                                             bool hints) {
  PRAGMALIST_CHECK(shards >= 1 && shards <= 1024,
                   "shard count must be in [1, 1024]");
  for (const auto& entry : kEntries)
    if (entry.id == base && entry.make_sharded != nullptr)
      return entry.make_sharded(std::string(id), shards, mode, hints);
  std::string msg = "id '" + std::string(id) + "' has a /shN suffix but '" +
                    std::string(base) + "' is not shardable; bases:";
  for (const auto& entry : kEntries) {
    if (entry.make_sharded == nullptr) continue;
    msg += ' ';
    msg += entry.id;
  }
  PRAGMALIST_CHECK(false, msg.c_str());
  __builtin_unreachable();
}

}  // namespace

std::unique_ptr<core::ISet> make_set(std::string_view id) {
  // Dashes are id-alias sugar (`unrolled-k8` == `unrolled_k8`): the
  // docs spell the family with a dash, the catalog key with an
  // underscore.
  std::string norm(id);
  for (char& ch : norm) {
    if (ch == '-') ch = '_';
  }
  // Hint-index switch: a final `/nohint` segment builds the same cell
  // with the shortcut-hint index disabled (readers always start from
  // head/cursor) -- the ablation twin the read-path benches and the CI
  // contains-heavy gate compare against. Outermost suffix, stripped
  // before `/heap`: `singly/ebr/heap/nohint`. Engine ids only; the
  // adapters reject it for structures without a hint index.
  bool hints = true;
  std::string_view lookup = norm;
  constexpr std::string_view kNoHintSuffix = "/nohint";
  if (lookup.size() > kNoHintSuffix.size() &&
      lookup.substr(lookup.size() - kNoHintSuffix.size()) == kNoHintSuffix) {
    hints = false;
    lookup.remove_suffix(kNoHintSuffix.size());
  }
  // Node-memory mode: catalog ids allocate from per-domain slabs by
  // default; a final `/heap` segment requests the plain-malloc twin
  // (`singly/ebr/heap`, `unrolled_k8/hp/sh4/heap`). Engines only --
  // structures that new their own nodes ignore the mode either way.
  alloc::Mode mode = alloc::Mode::kSlab;
  constexpr std::string_view kHeapSuffix = "/heap";
  if (lookup.size() > kHeapSuffix.size() &&
      lookup.substr(lookup.size() - kHeapSuffix.size()) == kHeapSuffix) {
    mode = alloc::Mode::kHeap;
    lookup.remove_suffix(kHeapSuffix.size());
  }
  {
    std::string_view base;
    int shards = 0;
    if (split_sharded_id(lookup, &base, &shards))
      return make_sharded_set(id, base, shards, mode, hints);
  }
  for (const auto& entry : kEntries)
    if (entry.id == lookup) return entry.make(std::string(id), mode, hints);
  std::string msg = "unknown variant '" + std::string(id) + "'; known:";
  for (const auto& entry : kEntries) {
    msg += ' ';
    msg += entry.id;
  }
  msg +=
      " (plus any shardable id with a /shN suffix, e.g. singly/ebr/sh8, a"
      " trailing /heap for the malloc twin of any engine id, and a trailing"
      " /nohint for an engine's hint-index-disabled twin)";
  PRAGMALIST_CHECK(false, msg.c_str());
  __builtin_unreachable();
}

const std::vector<std::string_view>& paper_variant_ids() {
  static const std::vector<std::string_view> ids = {
      "draconic",      "singly",          "doubly",
      "singly_cursor", "singly_fetch_or", "doubly_cursor",
  };
  return ids;
}

const std::vector<std::string_view>& figure_variant_ids() {
  static const std::vector<std::string_view> ids = {
      "draconic", "singly", "doubly", "singly_cursor", "doubly_cursor",
  };
  return ids;
}

const std::vector<std::string_view>& reclaim_variant_ids() {
  static const std::vector<std::string_view> ids = [] {
    std::vector<std::string_view> v;
    for (const auto& entry : kEntries) {
      const auto id = entry.id;
      if (id.find('/') != std::string_view::npos) v.push_back(id);
    }
    return v;
  }();
  return ids;
}

const std::vector<std::string_view>& sharded_variant_ids() {
  // Backing strings first, views second: both static, so the views
  // stay valid for the program's lifetime.
  static const std::vector<std::string>* storage = [] {
    auto* v = new std::vector<std::string>;
    for (const auto id : reclaim_variant_ids())
      v->push_back(std::string(id) + "/sh4");
    return v;
  }();
  static const std::vector<std::string_view> views = [] {
    std::vector<std::string_view> v;
    for (const auto& s : *storage) v.push_back(s);
    return v;
  }();
  return views;
}

const std::vector<std::string_view>& all_variant_ids() {
  static const std::vector<std::string_view> ids = [] {
    std::vector<std::string_view> v;
    for (const auto& entry : kEntries) v.push_back(entry.id);
    return v;
  }();
  return ids;
}

std::string_view variant_letter(std::string_view id) {
  for (const auto& entry : kEntries)
    if (entry.id == id) return entry.letter;
  return "-";
}

}  // namespace pragmalist::harness
