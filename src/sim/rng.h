// Deterministic random number generation for the simulator.
//
// Every experiment is seeded so results are bit-reproducible across runs,
// which the test suite relies on. xoshiro256++ is used instead of
// std::mt19937 because its state is small, splitting is cheap (each model
// component gets an independent stream), and the output is identical across
// standard library implementations.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/assert.h"
#include "sim/time.h"

namespace sim {

/// Seed-derivation namespaces. Labels are free-form strings chosen by
/// callers, so two different derivation purposes could otherwise collide on
/// the same (root, label) pair: a batch spec literally named "retry#1"
/// would share its stream with the first retry of an unnamed spec, and a
/// spec named "foo#0" with fan-out run 0 of a spec named "foo". The domain
/// is folded into the hash *before* the label, so equal labels in
/// different domains provably yield unrelated streams.
enum class SeedDomain : std::uint64_t {
  kGeneric = 0,  // default; byte-compatible with the two-argument overload
  kBatch = 1,    // per-spec seeds inside a batch (label = spec name)
  kRetry = 2,    // transient-failure retries (label = "retry#N")
  kFanout = 3,   // run_seeds replicates (label = "name#i")
  // 4 is unused; kRespawn keeps 5 so respawn jitter does not move.
  kRespawn = 5,  // supervisor respawn-backoff jitter (label = "respawn#N")
};

/// Derive a case seed from a root seed and a stable case label.
///
/// SplitMix64-style: the label is FNV-1a hashed, folded into the root, and
/// passed through the SplitMix64 finalizer. Because the result depends only
/// on (root, domain, label) — not on enumeration order — inserting,
/// removing, or reordering cases in a sweep never reshuffles the RNG
/// streams of the other cases (unlike the old `root + index` convention).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root, SeedDomain domain,
                                        std::string_view label);

/// Two-argument form: SeedDomain::kGeneric.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root,
                                        std::string_view label);

/// xoshiro256++ generator with SplitMix64 seeding.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Derive an independent child stream; used to give each device/workload
  /// its own RNG so adding one model component never perturbs another.
  [[nodiscard]] Rng split();

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

  /// Uniform duration in [lo, hi] inclusive.
  Duration uniform_duration(Duration lo, Duration hi) { return uniform(lo, hi); }

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Exponential distribution with the given mean (> 0).
  double exponential(double mean);

  /// Exponentially distributed duration with the given mean.
  Duration exponential_duration(Duration mean);

  /// Normal distribution (Box-Muller; consumes two uniforms per pair).
  double normal(double mean, double stddev);

  /// Log-normal: exp(N(log_mean, log_sigma)). Parameters are of the
  /// underlying normal.
  double lognormal(double log_mean, double log_sigma);

  /// Bounded Pareto on [lo, hi] with shape alpha — models the heavy tail of
  /// kernel critical-section hold times.
  double bounded_pareto(double lo, double hi, double alpha);

  /// Bounded-Pareto duration.
  Duration bounded_pareto_duration(Duration lo, Duration hi, double alpha);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace sim
