// Pinned output bytes. A change that claims only speed must leave every
// registry outcome byte-identical, so this test holds each spec's wire form
// to a pinned digest. A change that moves outputs on purpose re-pins the
// table from the failure messages and names the specs that moved.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "config/experiment.h"
#include "config/json.h"
#include "config/scenario_runner.h"

namespace {

/// json::content_digest(RunOutcome::to_full_json()) of every builtin spec
/// at scale 0.01, root seed 2003, one lane.
const std::map<std::string, std::string> kPinned = {
    {"fig1", "9c1c2938ceaf3910"},
    {"fig2", "c005e3af47eb086a"},
    {"fig3", "ef00c6718f4fe368"},
    {"fig4", "f5ae0abfa00ad908"},
    {"fig5", "c43151c83928b2f2"},
    {"fig6", "27d5b32e0ce798b1"},
    {"preempt-lowlat", "ebb3fda154c4a043"},
    {"fig7", "2252971c5b4a443b"},
    {"abl-shield-none", "d8d89dbbc66e56af"},
    {"abl-shield-procs", "29187000503b43c3"},
    {"abl-shield-irqs", "a46f4e3321c6e8bc"},
    {"abl-shield-ltmr", "184dd9e28360188b"},
    {"abl-shield-procs-irqs", "04f362ecd93ab8f1"},
    {"abl-shield-procs-ltmr", "3203bf7f65e74b93"},
    {"abl-shield-irqs-ltmr", "be4d620c49679466"},
    {"abl-shield-full", "e084e19a9ebb8df4"},
    {"abl-kernel-vanilla", "2d9d93ca82221468"},
    {"abl-kernel-lowlat", "3a714fcd1d180c1f"},
    {"abl-kernel-preempt", "26f2ce5ebbe3fee0"},
    {"abl-kernel-preempt-lowlat", "6e603e5184652e36"},
    {"abl-kernel-redhawk-noshield", "721d48eba4194d90"},
    {"abl-kernel-redhawk-shielded", "059af74362189166"},
    {"abl-bkl-locked", "45e63fc73bb97dbd"},
    {"abl-bkl-flagged", "d7bae7c99f8763e4"},
    {"abl-ht-duty0-sibling", "d4e2560710a59518"},
    {"abl-ht-duty0-core", "ec5e760f1bf17330"},
    {"abl-ht-duty25-sibling", "93a1937af1051c6e"},
    {"abl-ht-duty25-core", "0e5c8b409a3980d7"},
    {"abl-ht-duty50-sibling", "c052c00a98cb9577"},
    {"abl-ht-duty50-core", "8a52dff6de14d2bb"},
    {"abl-ht-duty75-sibling", "d3ea7a641f1f11ba"},
    {"abl-ht-duty75-core", "49c17d5a6f216332"},
    {"abl-ht-duty100-sibling", "4a1811c0ae78631a"},
    {"abl-ht-duty100-core", "fa0c68c0bfba2e99"},
    {"abl-mlock-locked-idle", "c9c94d25af167ee1"},
    {"abl-mlock-pageable-idle", "2a7172808295c88f"},
    {"abl-mlock-locked-loaded", "4ca8334c9c5ea6e3"},
    {"abl-mlock-pageable-loaded", "b8c8744ecd3ab239"},
    {"cyclic-vanilla", "7d4d30a5da54ecec"},
    {"cyclic-preempt-lowlat", "f3128a78d7ea4166"},
    {"cyclic-redhawk", "6d7fd1fe1fda201c"},
    {"cyclic-redhawk-shielded", "35520da9fbbb46b1"},
    {"freq-250", "c0fe1fdac84494f1"},
    {"freq-500", "1514fbed8264f337"},
    {"freq-1000", "3a44db821faae7e5"},
    {"freq-2000", "4df1197805e5f4b1"},
    {"freq-4000", "85ead88268b84f6c"},
    {"freq-8000", "e7f308ac29eca02f"},
    {"freq-10000", "53d89fd43516909d"},
    {"timer-gap-3ms-jiffy", "3bf1105192964f98"},
    {"timer-gap-3ms-hires", "5f1b1e5ee457a7bf"},
    {"timer-gap-7ms-jiffy", "433f0fb1a368dee0"},
    {"timer-gap-7ms-hires", "ca6aba7b15afdd60"},
    {"timer-gap-10ms-jiffy", "39717510e3612776"},
    {"timer-gap-10ms-hires", "c3512fd2971d9384"},
    {"timer-gap-25ms-jiffy", "46a91a47440d9eb0"},
    {"timer-gap-25ms-hires", "20659192f7ae430f"},
    {"holdoff-vanilla", "01fb76caeb4ebc08"},
    {"holdoff-preempt-lowlat", "b52f43d21953aa1c"},
    {"holdoff-redhawk", "01d1bdeaf374c097"},
    {"faults-storm-shielded", "b22e51b6187ecbd3"},
    {"faults-storm-unshielded", "6a8bd37592f78b08"},
    {"faults-smi-shielded", "adc259ac021ad549"},
    {"faults-lost-dup-shielded", "da1ff1ef425f39ae"},
    {"faults-drift-shielded", "a0be7f39659a4373"},
    {"mech-rtc-shielded", "43be5ca80611b118"},
    {"mech-rtc-oob", "4e8a37e1a666dfa3"},
    {"mech-rcim-shielded", "69eb83884fcaef3d"},
    {"mech-rcim-oob", "38716d8779507e1d"},
    {"mech-cyclic-shielded", "5cf4c6d2a112f7a1"},
    {"mech-cyclic-oob", "34b70e500530bb8e"},
    {"mech-storm-shielded", "b1e51cfe259d5f6c"},
    {"mech-storm-oob", "a68c5077e8a9e79f"},
    {"mech-smi-shielded", "4f6d8f9bc8392e5a"},
    {"mech-smi-oob", "87413e03d7da7e01"},
};

}  // namespace

TEST(SpeedOnly, RegistrySmokeDigestsArePinned) {
  const auto all = config::ScenarioRegistry::builtin().all();
  config::ScenarioRunner::Options opts;
  opts.scale = 0.01;
  opts.jobs = 1;
  const auto report = config::ScenarioRunner(opts).run_batch_report(all, 2003);
  ASSERT_EQ(report.outcomes.size(), all.size());
  EXPECT_EQ(kPinned.size(), all.size());
  for (const auto& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.name << ": " << outcome.error;
    const std::string digest =
        config::json::content_digest(outcome.to_full_json());
    const auto pinned = kPinned.find(outcome.name);
    const std::string want = pinned == kPinned.end() ? "" : pinned->second;
    EXPECT_EQ(want, digest) << "new digest: {\"" << outcome.name << "\", \""
                            << digest << "\"},";
  }
}
