// What a replay produced, and the checks every run applies to it.
//
// The checks compare the program's outputs with computations made apart
// from it (the request sequence the benchmark generated, its own fault
// plan, the disk profiles) or with properties the model must have
// (conservation of requests, energy and disk time).  None compares with a
// stored copy of an earlier output.  Each check is a plain function of a
// RunFacts value so the self-test can feed it corrupted copies.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ClientSpan {
  std::uint32_t client = 0;
  eevfs::Tick ts = 0;
  eevfs::Tick dur = 0;
  std::int64_t file = 0;
  std::int64_t attempt = 0;
  bool ok = false;
};

/// One network send from a client's endpoint (a net.send span).
struct ClientSend {
  eevfs::Tick ts = 0;
  std::int64_t bytes = 0;
};

struct NodeSpan {
  eevfs::Tick dur = 0;
  bool write = false;
};

struct DiskFacts {
  std::size_t node = 0;
  bool data = false;
  eevfs::Tick metered = 0;     // sum of the disk's per-state times
  double joules = 0.0;
  double standby_watts = 0.0;
  double peak_watts = 0.0;     // highest draw of any powered state
  double standby_seconds = 0.0;
  std::uint64_t transitions = 0;
};

/// Everything the checks and the reported metrics read from one replay.
struct RunFacts {
  core::RunMetrics m;
  std::size_t nodes = 0;
  double node_base_watts = 0.0;
  double client_bytes_per_sec = 0.0;
  std::vector<DiskFacts> disks;
  /// Acked writes not durable at the end of the run, summed over nodes:
  /// lost to a crash, wiped from RAM staging, stranded on a dead disk or
  /// still awaiting destage.
  std::uint64_t acked_writes_not_durable = 0;
  std::size_t stream_peak_resident = 0;
  // Traced replays only.
  bool traced = false;
  std::uint64_t trace_dropped = 0;
  std::vector<ClientSpan> client_spans;  // in completion order
  std::vector<NodeSpan> node_spans;
  /// Per client, its endpoint's sends in start order; filled only when
  /// the trace records the network (workloads that write).
  std::vector<std::vector<ClientSend>> client_sends;
};

/// Reads the facts out of a finished cluster.  On a traced run the
/// client.request and node.read / node.write spans are extracted; a
/// trace event name that is not in the tracer's string table makes this
/// throw, naming it, instead of yielding an empty span list.
RunFacts collect_facts(const core::Cluster& cluster, core::RunMetrics m);

/// A registry value by exact name; throws std::runtime_error naming the
/// metric when the run's snapshot does not carry it.
double registry_value(const core::RunMetrics& m, const std::string& name);
const eevfs::obs::Sample& registry_sample(const core::RunMetrics& m,
                                          const std::string& name);

/// Every RunMetrics field and registry sample, doubles in hex-float, so
/// two strings are equal exactly when the metrics are bit-identical.
std::string fingerprint(const core::RunMetrics& m);

class Verdict {
 public:
  void fail(std::string what) { errors_.push_back(std::move(what)); }
  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<std::string> errors_;
};

/// Failed operations of one replay: client requests that exhausted
/// their retries plus acknowledged writes that were lost.
std::uint64_t failed_operations(const RunFacts& f);

/// Conservation laws and bypassed-layer zeros; needs no trace.
void check_run(const WorkloadSpec& spec, std::size_t requests,
               const RunFacts& f, Verdict& v);

/// Writes of one traced replay whose payload never crossed the network:
/// while the request was outstanding its client sent fewer bytes than
/// the write carries.  Each is a failed operation, not a check failure.
struct WriteFindings {
  std::uint64_t payload_missing = 0;
  /// Of those, the ones acked faster than their bytes cross the client NIC.
  std::uint64_t faster_than_nic = 0;
};

/// Trace-level checks against the benchmark's own request sequence:
/// no dropped event, exactly one successful client.request span per
/// generated request (in each client's order), none issued before its
/// arrival time, span mean equal to RunMetrics' mean, no write span on a
/// read-only workload, and no response faster than the client NIC allows
/// among the operations that did not fail.  Returns the failed writes.
WriteFindings check_trace(const WorkloadSpec& spec,
                          const std::vector<trace::TraceRecord>& sequence,
                          const RunFacts& traced, Verdict& v);

/// The traced replay must reproduce the untraced one bit for bit.
void check_identical(const RunFacts& untraced, const RunFacts& traced,
                     Verdict& v);

/// On a fault plan: the k-of-n guarantee's precondition, from the plan.
void check_fault_plan(const WorkloadSpec& spec, Verdict& v);

}  // namespace perfbench
