// The snapshot/fork layer: StateArena allocation semantics, Snapshot
// capture/restore, engine-level restore determinism, whole-registry
// bit-identity of snapshot-at-t/restore/continue versus uninterrupted
// runs, and ScenarioRunner prefix reuse (fork determinism, hit accounting,
// child-owned flight recordings).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "config/experiment.h"
#include "config/scenario_runner.h"
#include "sim/arena.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "sim/snapshot.h"

namespace {

config::ScenarioSpec spec_of(const char* name) {
  const auto* s = config::ScenarioRegistry::builtin().find(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

/// Force `p` to escape the optimizer's view. Snapshot::restore rewrites
/// arena memory through memcpy in another translation unit; a pointer the
/// compiler can prove never escaped would let it assume the opaque call
/// cannot alias the allocation and fold loads across the restore. (Real
/// model objects always escape — into the engine's event queue at least —
/// so only these synthetic unit tests need the barrier.)
void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

// gtest assertions must not run while an arena scope is active on this
// thread: a *failing* EXPECT records its message in gtest's process-lifetime
// result list, and those strings would land in the arena, get rewound with
// it, and blow up at exit. Tests below collect facts under the scope and
// assert after it closes.

}  // namespace

// ---- StateArena -------------------------------------------------------------

TEST(StateArena, ServesAndRoutesAllocationsWhileActive) {
  sim::PooledArena arena;
  void* outside = ::operator new(64);
  void* inside = nullptr;
  bool inside_contained = false;
  bool outside_contained = true;
  {
    sim::StateArena::Scope scope(*arena);
    inside = ::operator new(64);
    inside_contained = arena->contains(inside);
    outside_contained = arena->contains(outside);
    // Frees of foreign (malloc) pointers route past the arena even while
    // it is active.
    ::operator delete(outside);
  }
  EXPECT_TRUE(inside_contained);
  EXPECT_FALSE(outside_contained);
  // Arena blocks find their way home after the scope closed.
  EXPECT_EQ(arena->live_blocks(), 1u);
  ::operator delete(inside);
  EXPECT_EQ(arena->live_blocks(), 0u);
}

TEST(StateArena, FreelistReusesBlocksOfTheSameClass) {
  sim::PooledArena arena;
  void* a = nullptr;
  void* b = nullptr;
  {
    sim::StateArena::Scope scope(*arena);
    a = arena->allocate(48, 16);
    arena->deallocate(a);
    b = arena->allocate(40, 16);  // same 64-byte class
    arena->deallocate(b);
  }
  EXPECT_EQ(a, b);
}

TEST(StateArena, ScopePauseTemporarilyRevertsToMalloc) {
  sim::PooledArena arena;
  bool in_contained = false;
  bool out_contained = true;
  {
    sim::StateArena::Scope scope(*arena);
    void* in = ::operator new(32);
    scope.pause();
    void* out = ::operator new(32);
    scope.resume();
    in_contained = arena->contains(in);
    out_contained = arena->contains(out);
    ::operator delete(in);
    ::operator delete(out);
  }
  EXPECT_TRUE(in_contained);
  EXPECT_FALSE(out_contained);
}

TEST(StateArena, NestedScopesRestoreThePreviousArena) {
  sim::PooledArena outer;
  sim::PooledArena inner;
  const sim::StateArena* seen_inner = nullptr;
  const sim::StateArena* seen_outer = nullptr;
  {
    sim::StateArena::Scope so(*outer);
    {
      sim::StateArena::Scope si(*inner);
      seen_inner = sim::StateArena::current();
    }
    seen_outer = sim::StateArena::current();
  }
  EXPECT_EQ(seen_inner, inner.get());
  EXPECT_EQ(seen_outer, outer.get());
  EXPECT_EQ(sim::StateArena::current(), nullptr);
}

TEST(Snapshot, RestoreRewindsBytesAndCursor) {
  sim::PooledArena arena;
  std::size_t used_at_capture = 0;
  std::size_t used_mutated = 0;
  std::size_t used_restored = 0;
  std::size_t size_restored = 0;
  int elem_restored = 0;
  {
    sim::StateArena::Scope scope(*arena);
    auto* v = new std::vector<int>{1, 2, 3};
    escape(v);
    const sim::Snapshot snap = sim::Snapshot::capture(*arena);
    used_at_capture = arena->used();
    v->assign(100, 7);  // mutate + reallocate beyond the mark
    escape(new std::string(256, 'x'));
    used_mutated = arena->used();
    snap.restore(*arena);  // string's memory rewound; its dtor must not run
    used_restored = arena->used();
    size_restored = v->size();
    elem_restored = (*v)[2];
    delete v;
  }
  EXPECT_GT(used_mutated, used_at_capture);
  EXPECT_EQ(used_restored, used_at_capture);
  EXPECT_EQ(size_restored, 3u);
  EXPECT_EQ(elem_restored, 3);
}

// ---- engine-level restore determinism ---------------------------------------

namespace {

/// A self-rescheduling workload over the engine: hops its own counter
/// forward at RNG-drawn intervals. Everything (engine, counter, closure
/// captures) lives in the arena.
struct Hopper {
  sim::Engine* eng;
  sim::Rng rng;
  std::uint64_t sum = 0;
  void hop() {
    sum += rng.uniform(1, 100);
    eng->schedule(static_cast<sim::Duration>(rng.uniform(10, 1000)),
                  [this] { hop(); });
  }
};

}  // namespace

TEST(Snapshot, EngineContinuesBitIdenticallyAfterRestore) {
  sim::PooledArena arena;
  sim::Time now_restored = 0;
  std::uint64_t sum_continued = 0, sum_resumed = 0;
  std::uint64_t events_continued = 0, events_resumed = 0;
  {
    sim::StateArena::Scope scope(*arena);
    auto* eng = new sim::Engine(2024);
    auto* h = new Hopper{eng, eng->rng().split()};
    escape(eng);
    escape(h);
    h->hop();
    eng->run_until(50'000);

    const sim::Snapshot snap = sim::Snapshot::capture(*arena);
    eng->run_until(200'000);
    sum_continued = h->sum;
    events_continued = eng->events_executed();

    snap.restore(*arena);
    now_restored = eng->now();
    eng->run_until(200'000);
    sum_resumed = h->sum;
    events_resumed = eng->events_executed();

    snap.restore(*arena);
    delete h;
    delete eng;
  }
  EXPECT_EQ(now_restored, 50'000);
  EXPECT_EQ(sum_resumed, sum_continued);
  EXPECT_EQ(events_resumed, events_continued);
  EXPECT_GT(sum_continued, 0u);
}

// ---- seed-domain separation (regression: retry/fork/batch collisions) -------

TEST(SeedDomains, AllNamespacesAreMutuallyDisjoint) {
  const std::uint64_t root = 2003;
  // The adversarial labels: a batch spec literally named like a retry tag
  // or a fan-out label must not share a stream with the real thing.
  const std::vector<std::string> labels = {"retry#1", "foo#0", "foo",
                                           "digest#7", "respawn#0", ""};
  const std::vector<sim::SeedDomain> domains = {
      sim::SeedDomain::kGeneric, sim::SeedDomain::kBatch,
      sim::SeedDomain::kRetry,   sim::SeedDomain::kFanout,
      sim::SeedDomain::kFork,    sim::SeedDomain::kRespawn};
  std::map<std::uint64_t, std::pair<int, std::string>> seen;
  for (std::size_t d = 0; d < domains.size(); ++d) {
    for (const auto& label : labels) {
      const std::uint64_t s = sim::derive_seed(root, domains[d], label);
      const auto [it, inserted] =
          seen.emplace(s, std::make_pair(static_cast<int>(d), label));
      EXPECT_TRUE(inserted)
          << "collision: domain " << d << " label '" << label
          << "' vs domain " << it->second.first << " label '"
          << it->second.second << "'";
    }
  }
  // The two-argument overload stays byte-compatible with kGeneric: batch
  // results from before the domain split that used explicit labels keep
  // deriving identically.
  EXPECT_EQ(sim::derive_seed(root, "foo"),
            sim::derive_seed(root, sim::SeedDomain::kGeneric, "foo"));
}

// ---- whole-registry bit identity --------------------------------------------

TEST(SnapshotBitIdentity, EveryBuiltinSpecSurvivesMidRunRestore) {
  config::ScenarioRunner::Options opt;
  opt.scale = 0.01;  // smoke scale: full coverage, bounded runtime
  opt.cache = false;
  config::ScenarioRunner runner(opt);
  for (const auto& spec : config::ScenarioRegistry::builtin().all()) {
    const auto check = runner.snapshot_bit_identity(spec, 2003);
    EXPECT_TRUE(check.identical)
        << spec.name << ": continued " << (check.baseline == check.continued)
        << ", resumed " << (check.baseline == check.resumed);
    EXPECT_GT(check.snapshot_bytes, 0u) << spec.name;
  }
}

// The oob stage keeps live state outside the kernel proper (pipeline
// contexts, captured timers, stall counters). All of it is allocated while
// the arena is active, so a mid-run snapshot/restore of an oob scenario
// must be as bit-identical as the in-band ones the loop above also covers —
// this names the interop explicitly so a regression points here first.
TEST(SnapshotBitIdentity, OobMechanismSurvivesMidRunRestore) {
  config::ScenarioRunner::Options opt;
  opt.scale = 0.01;
  opt.cache = false;
  config::ScenarioRunner runner(opt);
  for (const char* name : {"mech-rcim-oob", "mech-cyclic-oob"}) {
    const auto spec = spec_of(name);
    ASSERT_EQ(spec.mechanism, "oob") << name;
    const auto check = runner.snapshot_bit_identity(spec, 2017);
    EXPECT_TRUE(check.identical)
        << name << ": continued " << (check.baseline == check.continued)
        << ", resumed " << (check.baseline == check.resumed);
    EXPECT_GT(check.snapshot_bytes, 0u) << name;
  }
}

// ---- fork/prefix reuse ------------------------------------------------------

namespace {

config::ScenarioRunner::Options prefix_options() {
  config::ScenarioRunner::Options opt;
  opt.scale = 0.01;
  opt.cache = false;  // observe real runs, not cache hits
  opt.prefix_reuse = true;
  return opt;
}

}  // namespace

TEST(PrefixReuse, ForkedRunsAreDeterministicAcrossRunnersAndOrder) {
  const auto specs = config::ScenarioRegistry::builtin().all();
  // A family sharing one prefix: same machine/kernel/workloads, different
  // shield plans (the registry's ablation pairs are exactly this shape).
  const auto a = spec_of("fig2");
  const auto b = spec_of("fig3");

  config::ScenarioRunner r1(prefix_options());
  const auto a1 = r1.run(a, 7).to_json().dump();
  const auto b1 = r1.run(b, 7).to_json().dump();

  // Fresh runner, opposite order: b first, so b forks from a newly-built
  // prefix instead of a's. Results must not care.
  config::ScenarioRunner r2(prefix_options());
  const auto b2 = r2.run(b, 7).to_json().dump();
  const auto a2 = r2.run(a, 7).to_json().dump();
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);

  // Same spec, different seeds: different runs.
  config::ScenarioRunner r3(prefix_options());
  EXPECT_NE(r3.run(a, 7).to_json().dump(), r3.run(a, 8).to_json().dump());
  (void)specs;
}

TEST(PrefixReuse, SiblingsShareOnePrefixAndHitCountsSaySo) {
  const auto a = spec_of("fig2");
  const auto b = spec_of("fig3");
  config::ScenarioRunner runner(prefix_options());
  (void)runner.run(a, 1);
  (void)runner.run(b, 1);
  (void)runner.run(a, 2);
  const auto stats = runner.prefix_stats();
  EXPECT_EQ(stats.misses, 1u);  // one prefix build
  EXPECT_EQ(stats.hits, 2u);    // two forks of it
}

TEST(PrefixReuse, ForkedAndColdRunsNeverShareACacheSlot) {
  const auto spec = spec_of("fig2");
  auto opt = prefix_options();
  opt.cache = true;
  config::ScenarioRunner forked(opt);
  opt.prefix_reuse = false;
  config::ScenarioRunner cold(opt);
  const auto rf = forked.run(spec, 5);
  const auto rc = cold.run(spec, 5);
  EXPECT_FALSE(rf.from_cache);
  EXPECT_FALSE(rc.from_cache);
  // Same spec and seed, but the forked child's streams derive from the
  // fork label — the runs are legitimately different simulations.
  EXPECT_NE(rf.to_json().dump(), rc.to_json().dump());
}

TEST(PrefixReuse, BatchReportGroupsByPrefixAndRecordsReuse) {
  const auto all = config::ScenarioRegistry::builtin().all();
  config::ScenarioRunner runner(prefix_options());
  const auto report = runner.run_batch_report(all, 2003);
  ASSERT_EQ(report.outcomes.size(), all.size());
  for (const auto& o : report.outcomes) {
    EXPECT_TRUE(o.ok()) << o.name << ": " << o.error;
  }
  EXPECT_EQ(report.prefix_hits + report.prefix_misses, all.size());
  EXPECT_GT(report.prefix_hits, 0u);
  // The prefix hit rate is a deterministic function of the registry: at
  // least 30% of the builtin specs fork a shared prefix instead of building
  // one (perfbench reports the same figure as config.prefix_hit_pct).
  const double rate = static_cast<double>(report.prefix_hits) /
                      static_cast<double>(all.size());
  EXPECT_GE(rate, 0.30);
  const auto j = report.to_json();
  ASSERT_NE(j.find("prefix_reuse"), nullptr);
  EXPECT_EQ(j.find("prefix_reuse")->find("hits")->as_u64(),
            report.prefix_hits);

  // Determinism of the whole batch against a fresh runner.
  config::ScenarioRunner again(prefix_options());
  const auto report2 = again.run_batch_report(all, 2003);
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_TRUE(report2.outcomes[i].result.has_value());
    EXPECT_EQ(report.outcomes[i].result->to_json().dump(),
              report2.outcomes[i].result->to_json().dump())
        << all[i].name;
  }
}

TEST(PrefixReuse, BatchResultsMatchSingleRunResults) {
  const auto a = spec_of("fig2");
  const auto b = spec_of("fig3");
  config::ScenarioRunner batch_runner(prefix_options());
  const auto batch = batch_runner.run_batch({a, b}, 2003);
  config::ScenarioRunner single_runner(prefix_options());
  const auto sa = single_runner.run(
      a, sim::derive_seed(2003, sim::SeedDomain::kBatch, a.name));
  const auto sb = single_runner.run(
      b, sim::derive_seed(2003, sim::SeedDomain::kBatch, b.name));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].to_json().dump(), sa.to_json().dump());
  EXPECT_EQ(batch[1].to_json().dump(), sb.to_json().dump());
}
