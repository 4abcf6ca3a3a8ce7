// Shared shell for the registry-backed benches.
//
// Since the ScenarioSpec refactor a bench binary owns no wiring: it looks
// its scenarios up in config::ScenarioRegistry, runs them as one batch of
// a config::ScenarioRunner (--jobs sets its lanes) and formats the returned
// ScenarioResults. Everything that used to be a hand-built Platform in these
// files now lives in src/config/experiment.cpp as data.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <vector>

#include "bench_util.h"
#include "config/experiment.h"
#include "config/scenario_runner.h"

namespace bench {

/// Look up scenarios by name, in the given order. A missing name is a
/// build error in disguise (the registry and the benches ship together),
/// so it exits rather than returning a partial list.
inline std::vector<config::ScenarioSpec> specs_for(
    std::initializer_list<const char*> names) {
  const auto& reg = config::ScenarioRegistry::builtin();
  std::vector<config::ScenarioSpec> out;
  out.reserve(names.size());
  for (const char* n : names) {
    const config::ScenarioSpec* s = reg.find(n);
    if (s == nullptr) {
      std::fprintf(stderr, "scenario '%s' is not in the registry\n", n);
      std::exit(2);
    }
    out.push_back(*s);
  }
  return out;
}

inline config::ScenarioRunner make_runner(const Options& opt) {
  config::ScenarioRunner::Options ro;
  ro.jobs = opt.jobs;
  ro.scale = opt.scale;
  return config::ScenarioRunner{ro};
}

inline bool all_complete(const std::vector<config::ScenarioResult>& results) {
  for (const auto& r : results) {
    if (!r.probe.complete) return false;
  }
  return true;
}

}  // namespace bench
