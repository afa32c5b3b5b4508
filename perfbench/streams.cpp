#include "perfbench/streams.hpp"

#include <memory>

#include "src/workload/distributions.hpp"
#include "src/workload/rng.hpp"

namespace perfbench {

using pl::workload::OpKind;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // The served path: wire and kernel dominate the round trip.
      {"wire-zipf", "singly_fetch_or/ebr/sh8", true, kWireConnections,
       65536, 32768, {10, 10, 70, 10}, 0.99, true, {}},
      // The same traffic in-process: engine, hints, shards and EBR.
      {"list-zipf", "singly_fetch_or/ebr/sh8", false, 3, 65536, 32768,
       {10, 10, 70, 10}, 0.99, true, {}},
      // The paper's regime: one contended list, HP, half updates.
      {"list-churn", "doubly_cursor/hp", false, 3, 4096, 2048,
       {25, 25, 40, 10}, 0.0, false, {1, 64}},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

namespace {

Stream make_stream(const Workload& w, std::uint64_t seed, int slot) {
  const auto universe = static_cast<std::uint64_t>(w.universe);
  std::unique_ptr<const pl::workload::ZipfKeys> zipf;
  if (w.zipf_theta > 0)
    zipf = std::make_unique<pl::workload::ZipfKeys>(universe, w.zipf_theta);
  const pl::workload::UniformKeys uniform(universe);

  pl::workload::Rng rng(pl::workload::thread_seed(seed, slot));
  Stream s;
  s.reserve(kStreamOps);
  for (std::size_t i = 0; i < kStreamOps; ++i) {
    const OpKind kind = w.mix.pick(rng);
    const long key = zipf ? (*zipf)(rng) : uniform(rng);
    long width = 1;
    if (kind == OpKind::kScan)
      width = w.ascend_scans ? kScanPage : w.widths.pick(rng);
    s.push_back({static_cast<std::int32_t>(key),
                 static_cast<std::uint8_t>(kind),
                 static_cast<std::uint8_t>(width)});
  }
  return s;
}

}  // namespace

std::vector<Stream> make_streams(const Workload& w, std::uint64_t seed) {
  std::vector<Stream> streams;
  for (int c = 0; c < w.clients; ++c)
    streams.push_back(make_stream(w, seed, c));
  return streams;
}

StreamDigest digest(const std::vector<Stream>& streams) {
  StreamDigest d;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Stream& s : streams) {
    for (const Op& op : s) {
      ++d.counts[op.kind];
      mix(static_cast<std::uint32_t>(op.key));
      mix(op.kind);
      mix(op.width);
    }
  }
  d.hash = h;
  return d;
}

void prefill(pl::core::ISet& set, const Workload& w, std::uint64_t seed) {
  auto handle = set.make_handle();
  pl::workload::Rng rng(pl::workload::thread_seed(seed, -1));
  const auto universe = static_cast<std::uint64_t>(w.universe);
  long inserted = 0;
  while (inserted < w.prefill)
    inserted += handle->add(static_cast<long>(rng.below(universe)));
}

}  // namespace perfbench
