#include "kernel/trace_export.h"

#include <sstream>

#include "kernel/kernel.h"
#include "telemetry/timeline.h"

namespace kernel {

namespace {

using telemetry::json_escape;

void append_chain(std::ostringstream& os, const sim::LatencyChain& c) {
  os << "{\"origin\":\"" << json_escape(c.origin) << "\",\"start_ns\":"
     << c.start << ",\"end_ns\":" << c.end << ",\"total_ns\":" << c.total()
     << ",\"segments\":[";
  for (std::size_t i = 0; i < c.segments.size(); ++i) {
    const sim::ChainSegment& s = c.segments[i];
    if (i != 0) os << ",";
    os << "{\"kind\":\"" << to_string(s.kind) << "\",\"cpu\":" << s.cpu
       << ",\"begin_ns\":" << s.begin << ",\"end_ns\":" << s.end
       << ",\"span_ns\":" << s.span();
    if (!s.detail.empty()) os << ",\"detail\":\"" << json_escape(s.detail) << "\"";
    os << "}";
  }
  os << "]}";
}

}  // namespace

std::string latency_report_json(Kernel& k,
                                const std::vector<NamedChain>& chains) {
  std::ostringstream os;
  os << "{\"sim_time_ns\":" << k.now() << ",\"cpus\":[";
  // Per-CPU counters come from the same view table /proc/latency/cpuN
  // renders, so the two export paths agree field-for-field.
  for (int c = 0; c < k.ncpus(); ++c) {
    if (c != 0) os << ",";
    os << "{\"cpu\":" << c;
    for (const LatencyCounterView& v : latency_counter_views()) {
      os << ",\"" << v.key << "\":" << k.latency_counter(v.series, c);
    }
    os << "}";
  }
  os << "],\"locks\":[";
  bool first = true;
  for (int i = 0; i < static_cast<int>(LockId::kCount); ++i) {
    const SpinLock& l = k.lock(static_cast<LockId>(i));
    if (l.acquisitions() == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"lock\":\"" << to_string(static_cast<LockId>(i))
       << "\",\"acquisitions\":" << l.acquisitions()
       << ",\"contentions\":" << l.contentions()
       << ",\"wait_ns\":" << l.total_wait()
       << ",\"hold_ns\":" << l.total_hold() << "}";
  }
  const sim::ChainTracer& tracer = k.engine().chain_tracer();
  os << "],\"tracer\":{\"enabled\":"
     << (tracer.enabled() ? "true" : "false")
     << ",\"opened\":" << tracer.opened()
     << ",\"completed\":" << tracer.completed()
     << ",\"abandoned\":" << tracer.abandoned()
     << ",\"dropped\":" << tracer.dropped() << "}";
  os << ",\"chains\":[";
  for (std::size_t i = 0; i < chains.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"label\":\"" << json_escape(chains[i].label) << "\",\"chain\":";
    append_chain(os, chains[i].chain);
    os << "}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace kernel
