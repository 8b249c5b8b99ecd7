// The EEVFS facade: builds the simulated cluster from a ClusterConfig,
// executes the paper's six-step process flow (Fig. 2) against a
// workload, and returns the run metrics.
//
//   Step 1  initialisation: server connects to the nodes
//   Step 2  server derives file popularity (history trace / request log)
//   Step 3  placement + create files + prefetch popular files
//   Step 4  access-pattern hints forwarded to the nodes
//   Step 5  clients submit requests through the server
//   Step 6  nodes return data directly to the clients
//
// Robustness extension: the cluster also arms the fault injector from
// config.fault_plan, runs the server's health monitor while faults are
// live, and drives the client-side retry/timeout loop — a request gets a
// per-attempt deadline and up to max_request_retries re-issues before it
// is recorded as failed (typed, never a hang or a crash).
//
// A Cluster object is single-use: construct, run(), inspect.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "core/client.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/recovery_manager.hpp"
#include "core/storage_node.hpp"
#include "core/storage_server.hpp"
#include "fault/fault_injector.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"
#include "trace/record.hpp"
#include "util/units.hpp"
#include "workload/stream.hpp"
#include "workload/synthetic.hpp"

namespace eevfs::core {

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs the full process flow over `workload` and returns the metrics
  /// (metered from t=0, i.e. including the prefetch phase, until the last
  /// response — plus the final write-buffer destage if any).
  ///
  /// run() and run_stream() are two entries into one replay.  Setup is
  /// one pass over the requests that folds exact per-file popularity
  /// aggregates, counts the requests and collects the nodes'
  /// access-pattern hints; replay is one pump that pulls records into
  /// per-client queues a look-ahead window ahead of simulated time.  What
  /// depends on the source:
  ///  * run() reads a resident trace: nodes get each file's exact arrival
  ///    times, and the window is the whole trace (pulled at replay start);
  ///  * run_stream() reads a lazy stream (a second pass feeds the pump):
  ///    nodes get a timeline modeled from each file's access COUNT
  ///    (evenly spaced over the horizon), and the window is 1 s, so the
  ///    replay never holds the whole run.  Online popularity is rejected
  ///    (std::invalid_argument), as is a workload whose num_requests
  ///    disagrees with what its stream yields.
  /// The server's request log records routed requests only while the
  /// online-popularity refresh runs, its one reader.
  RunMetrics run(const workload::Workload& workload);
  RunMetrics run_stream(const workload::StreamingWorkload& workload);

  /// High-water mark of replay records resident at once during
  /// run_stream (look-ahead window + client backlogs) — the per-cell
  /// memory-budget figure the scalability bench reports.  0 after run(),
  /// whose trace is resident before the replay starts.
  std::size_t stream_peak_resident_records() const {
    return stream_peak_resident_;
  }

  // Post-run introspection (valid after run()).
  const StorageServer& server() const { return *server_; }
  const StorageNode& node(std::size_t i) const { return *nodes_.at(i); }
  std::size_t num_nodes() const { return nodes_.size(); }
  const net::NetworkFabric& network() const { return *net_; }
  const ClusterConfig& config() const { return config_; }
  /// Null on fault-free runs.
  const fault::FaultInjector* injector() const { return injector_.get(); }
  /// Null on fault-free runs (armed alongside the injector).
  const RecoveryManager* recovery() const { return recovery_.get(); }

  /// The run's event tracer (configured from config.trace; empty when
  /// tracing was disabled).  Valid after run(); use its write_jsonl /
  /// write_chrome_trace / write_binary sinks to export the timeline.
  const obs::Tracer& tracer() const { return *tracer_; }
  /// The run's metric registry.  RunMetrics::counters is its snapshot.
  const obs::Registry& registry() const { return *registry_; }
  /// Wall-clock seconds the event loop spent executing this run —
  /// diagnostic only (report meta), never part of RunMetrics.
  double wall_seconds() const { return sim_ ? sim_->wall_seconds() : 0.0; }
  /// Simulation events the event loop executed for this run — the
  /// throughput denominator for the perf smoke (events / wall second).
  std::uint64_t executed_events() const {
    return sim_ ? sim_->executed_events() : 0;
  }

 private:
  /// Everything workload-independent: sim, fabric, server, nodes,
  /// clients, observability plumbing.
  void build_infra();
  /// Fault-plan arming (no-op for an empty plan); after ingest so the
  /// recovery manager sees the final node set.
  void arm_faults();
  /// The one process flow behind run() and run_stream(): setup, prefetch
  /// barrier, pump-fed replay, drain + finish checks.  `exact_hints`: the
  /// source is a resident trace (see run()).
  RunMetrics replay(const workload::StreamingWorkload& source,
                    bool exact_hints);
  /// Steps 1-4 from one pass over `source`.
  void build(const workload::StreamingWorkload& source, bool exact_hints);
  /// Runs at the prefetch barrier: starts the replay-phase services and
  /// the first pump.
  void begin_replay();
  /// Pulls records due within the look-ahead window into the per-client
  /// queues, waking idle clients in client-index order; re-arms itself
  /// at the next record's window entry.
  void pump(Tick replay_start);
  void issue_next(std::size_t client_idx, Tick replay_start);
  /// One attempt of the client's open request: deadline-guarded, typed
  /// completion.
  void start_attempt(std::size_t client_idx, std::size_t attempt);
  /// Ends attempt `seq` of the client's open request (first caller wins):
  /// records the response, retries, or gives up.
  void settle_attempt(std::size_t client_idx, std::uint64_t seq, Tick t,
                      RequestStatus st);
  /// Advances the client's replay chain and the run-completion count.
  void complete_request(std::size_t client_idx, Tick replay_start);
  void finish_run();
  /// Registers every counter name (zero-valued ones included) and fills
  /// metrics_.counters with the registry snapshot.
  void snapshot_counters();

  ClusterConfig config_;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::Tracer> tracer_;
  obs::Histogram* hist_queue_wait_ = nullptr;
  obs::Histogram* hist_req_latency_ = nullptr;
  obs::Histogram* hist_ram_hit_bytes_ = nullptr;
  obs::Histogram* hist_ram_miss_bytes_ = nullptr;
  obs::StringId ev_client_request_ = 0;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::NetworkFabric> net_;
  std::unique_ptr<StorageServer> server_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
  std::vector<Client> clients_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<RecoveryManager> recovery_;
  RecoveryManager::Histograms recovery_hists_;

  std::size_t responses_outstanding_ = 0;
  std::vector<std::deque<trace::TraceRecord>> replay_queues_;
  /// The one request a closed-loop client has outstanding.  `seq` numbers
  /// the client's attempts, so completions of an earlier attempt, or of
  /// an earlier request, find a newer seq and drop out.
  struct OpenRequest {
    trace::TraceRecord r{};
    Tick replay_start = 0;
    Tick issued = 0;
    std::size_t attempt = 0;
    std::uint64_t seq = 0;
    bool settled = true;
    sim::EventHandle deadline;
  };
  std::vector<OpenRequest> open_requests_;  // one per client
  bool finished_ = false;
  RunMetrics metrics_;

  // replay pump state
  std::unique_ptr<workload::RequestStream> stream_;
  trace::TraceRecord stream_pending_{};
  bool stream_has_pending_ = false;
  Tick lookahead_ = 0;
  /// Clients that drained their queue and await the pump.
  std::vector<bool> client_waiting_;
  std::vector<std::size_t> woken_;  // scratch: clients one pull woke
  std::size_t stream_resident_ = 0;
  std::size_t stream_peak_resident_ = 0;

  // client-level availability accounting
  std::uint64_t failed_requests_ = 0;
  std::uint64_t timed_out_requests_ = 0;
  std::uint64_t client_retries_ = 0;
  std::uint64_t recovered_by_retry_ = 0;
};

/// Convenience for the benches: run the same workload with and without
/// prefetching (PF vs NPF) and return both metric sets.
struct PfNpfComparison {
  RunMetrics pf;
  RunMetrics npf;
  double energy_gain() const { return pf.energy_gain_vs(npf); }
  double response_penalty() const { return pf.response_penalty_vs(npf); }
};
/// The paper's NPF counterpart of `config` (§III-C): the standby
/// schedule is derived from the prefetch plan, so without prefetching
/// there are no marked sleep points and power management is off too —
/// NPF's Fig. 4/5 curves show no transition or spin-up artifacts.
ClusterConfig without_prefetch(ClusterConfig config);

PfNpfComparison run_pf_npf(const ClusterConfig& config,
                           const workload::Workload& workload);

}  // namespace eevfs::core
