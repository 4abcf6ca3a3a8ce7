// CPU topology: physical cores and hyperthread siblings.
//
// The paper's §5.2 finding — hyperthreading is a major determinism hazard —
// requires the model to know which logical CPUs share an execution unit.
// With HT enabled, logical CPUs 2k and 2k+1 are siblings on core k (the
// layout of the paper's dual Xeons).
#pragma once

#include <vector>

#include "hw/cpu_mask.h"
#include "hw/types.h"
#include "sim/assert.h"

namespace hw {

class Topology {
 public:
  /// `physical_cores` execution units; `hyperthreading` doubles the logical
  /// CPU count. `cpu_ghz` sets nominal execution speed (informational).
  Topology(int physical_cores, bool hyperthreading, double cpu_ghz = 1.4);

  [[nodiscard]] int logical_cpus() const { return logical_cpus_; }
  [[nodiscard]] int physical_cores() const { return physical_cores_; }
  [[nodiscard]] bool hyperthreading() const { return hyperthreading_; }
  [[nodiscard]] double cpu_ghz() const { return cpu_ghz_; }

  /// Mask of all logical CPUs.
  [[nodiscard]] CpuMask all_cpus() const {
    return CpuMask::first_n(logical_cpus_);
  }

  /// Physical core hosting a logical CPU.
  [[nodiscard]] int core_of(CpuId cpu) const {
    SIM_ASSERT(valid_cpu(cpu));
    return hyperthreading_ ? cpu / 2 : cpu;
  }

  /// The other logical CPU on the same core, or -1 without HT.
  [[nodiscard]] CpuId sibling_of(CpuId cpu) const {
    SIM_ASSERT(valid_cpu(cpu));
    if (!hyperthreading_) return -1;
    return cpu ^ 1;
  }

  [[nodiscard]] bool valid_cpu(CpuId cpu) const {
    return cpu >= 0 && cpu < logical_cpus_;
  }

 private:
  int physical_cores_;
  bool hyperthreading_;
  int logical_cpus_;
  double cpu_ghz_;
};

}  // namespace hw
