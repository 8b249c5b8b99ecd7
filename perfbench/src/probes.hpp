// Per-layer host-time probes: each times one public library function
// from outside, on the workload's own inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/record.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Seconds to drain one SyntheticStream pass of the workload's generator.
double time_stream_pass(const WorkloadSpec& spec);

/// Seconds for PopularityAnalyzer + place_files over the workload's own
/// files and request sequence (the server's placement step, set apart).
double time_placement(const WorkloadSpec& spec, const Inputs& in,
                      const std::vector<trace::TraceRecord>& sequence);

/// ns per event of a standalone sim::Simulator that executes `events`
/// events while holding about `depth` pending, with delays spread so the
/// pending population matches the replay's (Little's law over
/// `horizon_ticks`).
double engine_ns_per_event(std::uint64_t events, std::size_t depth,
                           eevfs::Tick horizon_ticks, std::uint64_t seed);

/// ns per request of a standalone core::RamCache (one node's capacity and
/// policy) driven by the request sequence: look up, admit on a miss.
double ramcache_ns_per_op(const std::vector<trace::TraceRecord>& sequence,
                          eevfs::Bytes capacity, core::RamCachePolicy policy);

}  // namespace perfbench
