// Helpers for kernel-level tests: scripted tasks and a platform rig; and a
// per-test scratch directory for tests that write stores to disk.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "config/platform.h"
#include "kernel/kernel.h"
#include "workload/workload.h"

namespace testutil {

using namespace sim::literals;

/// A task that performs a fixed list of actions, then exits. Each action
/// boundary records the simulation time it was reached.
class ScriptedBehavior final : public kernel::Behavior {
 public:
  explicit ScriptedBehavior(std::vector<kernel::Action> actions,
                            std::vector<sim::Time>* boundaries = nullptr)
      : actions_(std::move(actions)), boundaries_(boundaries) {}

  kernel::Action next_action(kernel::Kernel& k, kernel::Task&) override {
    if (boundaries_ != nullptr) boundaries_->push_back(k.now());
    if (next_ >= actions_.size()) return kernel::ExitAction{};
    return std::move(actions_[next_++]);
  }

 private:
  std::vector<kernel::Action> actions_;
  std::vector<sim::Time>* boundaries_;
  std::size_t next_ = 0;
};

/// Spawn a task that runs `actions` then exits; boundary timestamps go to
/// `*boundaries` if given.
inline kernel::Task& spawn_scripted(kernel::Kernel& k,
                                    kernel::Kernel::TaskParams params,
                                    std::vector<kernel::Action> actions,
                                    std::vector<sim::Time>* boundaries = nullptr) {
  return k.create_task(std::move(params), std::make_unique<ScriptedBehavior>(
                                              std::move(actions), boundaries));
}

/// Spawn an endless CPU hog at the given policy/priority.
inline kernel::Task& spawn_hog(kernel::Kernel& k, const std::string& name,
                               hw::CpuMask affinity = {},
                               kernel::SchedPolicy policy = kernel::SchedPolicy::kOther,
                               int rt_priority = 0) {
  kernel::Kernel::TaskParams tp;
  tp.name = name;
  tp.policy = policy;
  tp.rt_priority = rt_priority;
  tp.affinity = affinity;
  return workload::spawn(k, std::move(tp),
                         [](kernel::Kernel&, kernel::Task&) -> kernel::Action {
                           return kernel::ComputeAction{1_ms, 0.3};
                         });
}

/// Spawn a task that repeatedly issues the same syscall program.
inline kernel::Task& spawn_syscall_loop(
    kernel::Kernel& k, const std::string& name,
    std::function<kernel::KernelProgram(kernel::Kernel&)> make_program,
    hw::CpuMask affinity = {}) {
  kernel::Kernel::TaskParams tp;
  tp.name = name;
  tp.affinity = affinity;
  return workload::spawn(
      k, std::move(tp),
      [make_program](kernel::Kernel& kk, kernel::Task&) -> kernel::Action {
        return kernel::SyscallAction{make_program(kk)};
      });
}

/// A two-CPU RedHawk platform for shield tests.
inline std::unique_ptr<config::Platform> redhawk_rig(std::uint64_t seed = 1) {
  return std::make_unique<config::Platform>(
      config::MachineConfig::dual_p4_xeon_2000_rcim(),
      config::KernelConfig::redhawk_1_4(), seed);
}

/// A two-CPU vanilla platform.
inline std::unique_ptr<config::Platform> vanilla_rig(std::uint64_t seed = 1) {
  return std::make_unique<config::Platform>(
      config::MachineConfig::dual_p3_xeon_933(),
      config::KernelConfig::vanilla_2_4_20(), seed);
}

/// A path of the calling test's own under the system temp directory, named
/// after the test and the pid so concurrent test processes never share one.
/// Nothing is created; remove it with std::filesystem::remove_all.
inline std::string temp_dir(const std::string& test) {
  return (std::filesystem::temp_directory_path() /
          (test + "-" + std::to_string(::getpid())))
      .string();
}

}  // namespace testutil
