// The paper's thread-private configuration (§3): "the benchmarks can
// also be configured such that each thread operates on a private list
// ... either the lock-free implementation, or a standard, sequential
// list. These configurations can give an idea of the system and memory
// overheads when there is no actual interaction between threads."
// The paper does not report these numbers; we implement the
// configuration and report them as an extension.
//
//   bench_private [--threads P] [--c OPS] [--u UNIVERSE] [--no-pin]
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/baselines/sequential_list.hpp"
#include "src/core/variants.hpp"
#include "src/harness/drivers.hpp"
#include "src/harness/thread_team.hpp"
#include "src/workload/distributions.hpp"
#include "src/workload/op_mix.hpp"
#include "src/workload/rng.hpp"

namespace {

using namespace pragmalist;

/// Run the 10/10/80 mix on one private structure per thread. `ops` is
/// any callable triple access (add/rem/con) factory per thread.
template <typename MakeOps>
harness::RunResult private_mix(int p, long c, long universe,
                               std::uint64_t seed, bool pin,
                               MakeOps make_ops) {
  std::vector<core::OpCounters> counters(static_cast<std::size_t>(p));
  const double ms = harness::run_team(
      p,
      [&](int t) {
        auto ops = make_ops();  // private structure, created on the thread
        workload::Xoshiro256StarStar rng(workload::thread_seed(seed, t));
        const workload::UniformKeys keys(
            static_cast<std::uint64_t>(universe));
        const workload::OpMix mix = workload::kTableMix;
        for (long j = 0; j < c; ++j) {
          const long k = keys(rng);
          switch (mix.pick(rng)) {
            case workload::OpKind::kAdd:
              ops.add(k);
              break;
            case workload::OpKind::kRemove:
              ops.remove(k);
              break;
            case workload::OpKind::kContains:
              ops.contains(k);
              break;
            case workload::OpKind::kScan:
              break;  // unreachable: the table mix has no scan share
          }
        }
        counters[static_cast<std::size_t>(t)] = ops.counters();
      },
      pin);
  harness::RunResult r;
  r.ms = ms;
  for (const auto& ctr : counters) r.agg += ctr;
  r.total_ops = r.agg.total_ops();
  return r;
}

/// Private lock-free list: the list object and its single handle live
/// on one thread; all atomics still execute, measuring their cost
/// without any actual sharing.
template <typename List>
struct PrivateLockFree {
  List list;
  core::Counted<typename List::Handle> h{list.make_handle()};
  bool add(long k) { return h.add(k); }
  bool remove(long k) { return h.remove(k); }
  bool contains(long k) { return h.contains(k); }
  core::OpCounters counters() const { return h.counters(); }
};

}  // namespace

int main(int argc, char** argv) {
  const auto opt = harness::Options::parse(argc, argv);
  const int p = bench::default_threads(opt, 16);
  const long c = opt.get_long("c", 50000);
  const long u = opt.get_long("u", 10000);
  const auto seed = static_cast<std::uint64_t>(opt.get_long("seed", 42));
  const bool pin = !opt.get_bool("no-pin");

  std::vector<harness::TableRow> rows;
  rows.push_back(
      {"seq_singly", private_mix(p, c, u, seed, pin, [] {
         return core::Counted(baselines::SequentialList());
       })});
  rows.push_back(
      {"seq_doubly_cursor", private_mix(p, c, u, seed, pin, [] {
         return core::Counted(baselines::SequentialCursorList());
       })});
  rows.push_back(
      {"lf_singly_cursor", private_mix(p, c, u, seed, pin, [] {
         return PrivateLockFree<core::SinglyCursorList>();
       })});
  rows.push_back(
      {"lf_doubly_cursor", private_mix(p, c, u, seed, pin, [] {
         return PrivateLockFree<core::DoublyCursorList>();
       })});

  std::ostringstream title;
  title << "Thread-private lists (paper config, unreported), mix 10/10/80, p="
        << p << ", c=" << c << ", U=" << u;
  harness::print_paper_table(std::cout, title.str(), rows);
  std::cout << "Interpretation: lock-free vs sequential gap = cost of the\n"
               "atomic operations and list-node layout alone (no sharing).\n";
  return 0;
}
