// The four benchmark workloads and the inputs each replay consumes.
//
// Every workload is the paper's synthetic generator scaled per node the
// way `bench/scalability --datacenter` scales it (files, MU, prefetch
// count and arrival rate proportional to nodes / 8), replayed through the
// public core::Cluster API.  The seed passed on the command line drives
// the request sequence, the file sizes, the cluster's own seed and, on
// ec_crash, the crash schedule.  Which requests are writes does not
// depend on it: on tiered_writes and ec_crash every third request is one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/config.hpp"
#include "trace/record.hpp"
#include "workload/stream.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {

namespace core = eevfs::core;
namespace workload = eevfs::workload;
namespace trace = eevfs::trace;

enum class Replay { kEager, kStream };

struct WorkloadSpec {
  std::string name;
  Replay replay = Replay::kEager;
  core::ClusterConfig config;
  workload::SyntheticConfig synth;
  /// Every write_period-th request is a write; 0 = read-only.
  std::size_t write_period = 0;

  bool ram() const { return config.ram_cache_bytes > 0; }
  bool erasure() const { return config.ec_n > 0; }
  bool faults() const { return !config.fault_plan.empty(); }
  bool stream() const { return replay == Replay::kStream; }
  bool writes() const { return write_period > 0; }
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument on an unknown name.  `requests` > 0
/// overrides the workload's request count (self-test and probing only).
WorkloadSpec make_spec(const std::string& name, std::uint64_t seed,
                       std::size_t requests = 0);

/// What one replay consumes: a materialised workload for Cluster::run or
/// a lazy one for Cluster::run_stream.
struct Inputs {
  std::optional<workload::Workload> eager;
  std::optional<workload::StreamingWorkload> stream;
};

/// Builds the inputs (the generation half of set-up).
Inputs build_inputs(const WorkloadSpec& spec);

/// Replays the inputs through the spec's replay path.
core::RunMetrics replay(core::Cluster& cluster, const WorkloadSpec& spec,
                        const Inputs& in);

/// The spec's config with tracing on: client and node spans, plus every
/// network send when the workload writes (the payload check reads them),
/// in a ring large enough to drop nothing.
core::ClusterConfig traced_config(const WorkloadSpec& spec);

/// The full request sequence in arrival order, as the replay sees it
/// (drains one stream pass for the streaming workload).
std::vector<trace::TraceRecord> request_sequence(const WorkloadSpec& spec,
                                                 const Inputs& in);

/// Most nodes down at once under the spec's own fault plan, computed
/// from the plan's crash/restart events alone.
std::size_t max_nodes_down(const eevfs::fault::FaultPlan& plan);

}  // namespace perfbench
