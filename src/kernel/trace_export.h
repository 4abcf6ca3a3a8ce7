// JSON export of the latency-tracing state: per-CPU counters, per-lock
// wait/hold totals, chain-tracer statistics, and any completed latency
// chains the caller collected (typically each rt test's worst-case sample).
// `tools/report.py latency` renders this format.
#pragma once

#include <string>
#include <vector>

#include "sim/trace.h"

namespace kernel {

class Kernel;

/// A completed chain with the label it should carry in the report,
/// e.g. "realfeel worst case".
struct NamedChain {
  std::string label;
  sim::LatencyChain chain;
};

/// Render the kernel's latency counters plus `chains` as a JSON document.
std::string latency_report_json(Kernel& k,
                                const std::vector<NamedChain>& chains);

}  // namespace kernel
