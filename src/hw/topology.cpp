#include "hw/topology.h"

#include "sim/assert.h"

namespace hw {

Topology::Topology(int physical_cores, bool hyperthreading, double cpu_ghz)
    : physical_cores_(physical_cores),
      hyperthreading_(hyperthreading),
      logical_cpus_(hyperthreading ? physical_cores * 2 : physical_cores),
      cpu_ghz_(cpu_ghz) {
  SIM_ASSERT(physical_cores >= 1 && logical_cpus_ <= 64);
  SIM_ASSERT(cpu_ghz > 0.0);
}

}  // namespace hw
