#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "disk/power_state.hpp"
#include "net/network.hpp"

namespace perfbench {

namespace {

using eevfs::Tick;

bool near_equal(double a, double b, double rel = 1e-9) {
  return std::fabs(a - b) <= rel * std::max({std::fabs(a), std::fabs(b), 1.0});
}

template <typename... Args>
std::string fmt(const char* f, Args... args) {
  char buf[200];
  std::snprintf(buf, sizeof buf, f, args...);
  return buf;
}

/// Name -> id over the tracer's interned strings (ids are dense from 0).
std::map<std::string, eevfs::obs::StringId> string_table(
    const eevfs::obs::Tracer& t) {
  std::map<std::string, eevfs::obs::StringId> ids;
  for (eevfs::obs::StringId id = 1;; ++id) {
    try {
      ids.emplace(t.lookup(id), id);
    } catch (const std::out_of_range&) {
      break;
    }
  }
  return ids;
}

eevfs::obs::StringId require_id(
    const std::map<std::string, eevfs::obs::StringId>& ids,
    const std::string& name) {
  const auto it = ids.find(name);
  if (it == ids.end()) {
    throw std::runtime_error("trace event name '" + name +
                             "' is not in the tracer's string table");
  }
  return it->second;
}

}  // namespace

const eevfs::obs::Sample& registry_sample(const core::RunMetrics& m,
                                          const std::string& name) {
  const auto it = std::lower_bound(
      m.counters.begin(), m.counters.end(), name,
      [](const eevfs::obs::Sample& s, const std::string& n) {
        return s.name < n;
      });
  if (it == m.counters.end() || it->name != name) {
    throw std::runtime_error("registry metric '" + name +
                             "' is missing from the run's snapshot");
  }
  return *it;
}

double registry_value(const core::RunMetrics& m, const std::string& name) {
  return registry_sample(m, name).value;
}

RunFacts collect_facts(const core::Cluster& cluster, core::RunMetrics m) {
  RunFacts f;
  f.m = std::move(m);
  const core::ClusterConfig& cfg = cluster.config();
  f.nodes = cluster.num_nodes();
  f.node_base_watts = cfg.node_base_watts;
  f.client_bytes_per_sec =
      eevfs::net::mbps_to_bytes_per_sec(cfg.client_nic_mbps) *
      cfg.nic_efficiency;
  f.stream_peak_resident = cluster.stream_peak_resident_records();
  using eevfs::disk::PowerState;
  auto disk_facts = [](const eevfs::disk::DiskModel& d, std::size_t node,
                       bool data) {
    DiskFacts df;
    df.node = node;
    df.data = data;
    df.metered = d.meter().total_ticks();
    df.joules = d.meter().total_joules();
    const auto& p = d.profile();
    df.standby_watts = p.watts(PowerState::kStandby);
    for (PowerState s : {PowerState::kActive, PowerState::kIdle,
                         PowerState::kStandby, PowerState::kSpinningUp,
                         PowerState::kSpinningDown}) {
      df.peak_watts = std::max(df.peak_watts, p.watts(s));
    }
    df.standby_seconds =
        eevfs::ticks_to_seconds(d.meter().ticks(PowerState::kStandby));
    df.transitions = d.spin_ups() + d.spin_downs();
    return df;
  };
  for (std::size_t n = 0; n < cluster.num_nodes(); ++n) {
    const core::StorageNode& node = cluster.node(n);
    for (std::size_t d = 0; d < node.num_data_disks(); ++d) {
      f.disks.push_back(disk_facts(node.data_disk(d), n, true));
    }
    for (std::size_t d = 0; d < node.num_buffer_disks(); ++d) {
      f.disks.push_back(disk_facts(node.buffer_disk(d), n, false));
    }
    f.acked_writes_not_durable += node.lost_acked_writes() +
                                  node.ram_lost_writes() +
                                  node.writes_stranded() +
                                  node.undestaged_acked();
  }

  const eevfs::obs::Tracer& tr = cluster.tracer();
  f.traced = tr.enabled();
  if (!f.traced) return f;
  f.trace_dropped = tr.dropped();
  const auto ids = string_table(tr);
  const auto ev_client = require_id(ids, "client.request");
  const auto ev_read = require_id(ids, "node.read");
  const auto ev_write = require_id(ids, "node.write");
  const auto ok = require_id(ids, "ok");
  std::map<eevfs::obs::StringId, std::uint32_t> client_of;
  for (std::uint32_t c = 0; c < cfg.num_clients; ++c) {
    client_of[require_id(ids, "client" + std::to_string(c))] = c;
  }
  const bool net = (cfg.trace.category_mask & eevfs::obs::kCatNet) != 0;
  const auto ev_send = net ? require_id(ids, "net.send") : 0;
  if (net) f.client_sends.resize(cfg.num_clients);
  for (const eevfs::obs::TraceEvent& e : tr.events()) {
    if (net && e.name == ev_send) {
      const auto it = client_of.find(e.track);
      if (it != client_of.end()) {
        f.client_sends[it->second].push_back({.ts = e.ts, .bytes = e.a0});
      }
    } else if (e.name == ev_client) {
      const auto it = client_of.find(e.track);
      if (it == client_of.end()) {
        throw std::runtime_error("client.request span on unknown track '" +
                                 tr.lookup(e.track) + "'");
      }
      f.client_spans.push_back({.client = it->second,
                                .ts = e.ts,
                                .dur = e.dur,
                                .file = e.a0,
                                .attempt = e.a1,
                                .ok = e.detail == ok});
    } else if (e.name == ev_read || e.name == ev_write) {
      f.node_spans.push_back({.dur = e.dur, .write = e.name == ev_write});
    }
  }
  for (auto& sends : f.client_sends) {
    std::stable_sort(sends.begin(), sends.end(),
                     [](const ClientSend& a, const ClientSend& b) {
                       return a.ts < b.ts;
                     });
  }
  return f;
}

std::string fingerprint(const core::RunMetrics& m) {
  std::string s;
  char buf[64];
  auto d = [&](const char* k, double x) {
    std::snprintf(buf, sizeof buf, "%s=%a;", k, x);
    s += buf;
  };
  auto u = [&](const char* k, std::uint64_t x) {
    std::snprintf(buf, sizeof buf, "%s=%llu;", k,
                  static_cast<unsigned long long>(x));
    s += buf;
  };
  auto t = [&](const char* k, Tick x) {
    std::snprintf(buf, sizeof buf, "%s=%lld;", k, static_cast<long long>(x));
    s += buf;
  };
  d("total_joules", m.total_joules);
  u("power_transitions", m.power_transitions);
  u("resp.count", m.response_time_sec.count());
  d("resp.mean", m.response_time_sec.mean());
  d("resp.var", m.response_time_sec.variance());
  d("resp.min", m.response_time_sec.min());
  d("resp.max", m.response_time_sec.max());
  d("resp.sum", m.response_time_sec.sum());
  d("p95", m.response_p95_sec);
  d("p99", m.response_p99_sec);
  d("disk_joules", m.disk_joules);
  d("base_joules", m.base_joules);
  u("spin_ups", m.spin_ups);
  u("spin_downs", m.spin_downs);
  t("makespan", m.makespan);
  t("prefetch_duration", m.prefetch_duration);
  u("requests", m.requests);
  u("buffer_hits", m.buffer_hits);
  u("data_disk_reads", m.data_disk_reads);
  u("wakeups_on_demand", m.wakeups_on_demand);
  u("bytes_served", m.bytes_served);
  u("bytes_prefetched", m.bytes_prefetched);
  for (const core::NodeMetrics& n : m.per_node) {
    s += n.label + ":";
    d("disk_joules", n.disk_joules);
    d("base_joules", n.base_joules);
    u("spin_ups", n.spin_ups);
    u("spin_downs", n.spin_downs);
    u("buffer_hits", n.buffer_hits);
    u("data_disk_reads", n.data_disk_reads);
    u("writes_buffered", n.writes_buffered);
    u("writes_direct", n.writes_direct);
    u("bytes_served", n.bytes_served);
    t("standby", n.data_disk_standby_ticks);
    u("ram_hits", n.ram_hits);
    u("ram_misses", n.ram_misses);
    u("ram_evictions", n.ram_evictions);
    u("ram_writebacks", n.ram_writebacks);
    u("ram_writes_absorbed", n.ram_writes_absorbed);
    u("journal_appends", n.journal_appends);
    u("journal_replayed", n.journal_replayed);
    u("lost_acked_writes", n.lost_acked_writes);
    u("failed_serves", n.failed_serves);
  }
  const core::AvailabilityMetrics& av = m.availability;
  u("av.faults", av.faults_injected);
  u("av.failed", av.failed_requests);
  u("av.timed_out", av.timed_out_requests);
  u("av.retried", av.retried_requests);
  u("av.rerouted", av.rerouted_requests);
  u("av.client_retries", av.client_retries);
  u("av.disk_io_retries", av.disk_io_retries);
  u("av.stranded", av.writes_stranded);
  u("av.lost_acked", av.lost_acked_writes);
  t("av.degraded", av.degraded_ticks);
  u("av.episodes", av.recovery_episodes);
  d("av.mttr", av.mttr_sec);
  d("av.fault_energy", av.fault_energy_delta);
  const core::RecoveryMetrics& r = m.recovery;
  u("rec.episodes", r.episodes);
  u("rec.replayed", r.replayed_writes);
  u("rec.resynced", r.resynced_files);
  u("rec.rewarmed", r.rewarmed_files);
  t("rec.replay", r.replay_ticks);
  t("rec.resync", r.resync_ticks);
  t("rec.rewarm", r.rewarm_ticks);
  t("rec.mttr", r.mttr_ticks);
  const core::ErasureMetrics& e = m.erasure;
  u("ec.reads", e.reads);
  u("ec.degraded", e.degraded_reads);
  u("ec.chunks", e.chunk_requests);
  u("ec.hedges", e.hedges_launched);
  t("ec.reconstruct", e.reconstruct_ticks);
  d("ec.energy", e.degraded_energy_estimate);
  u("ram.hits", m.ram.hits);
  u("ram.misses", m.ram.misses);
  u("ram.evictions", m.ram.evictions);
  u("ram.lost", m.ram.lost_writes);
  for (const eevfs::obs::Sample& c : m.counters) {
    s += c.name + ":";
    d("v", c.value);
    u("n", c.count);
    d("mean", c.mean);
    d("p50", c.p50);
    d("p99", c.p99);
    d("max", c.max);
  }
  return s;
}

std::uint64_t failed_operations(const RunFacts& f) {
  return f.m.availability.failed_requests + f.acked_writes_not_durable;
}

void check_run(const WorkloadSpec& spec, std::size_t requests,
               const RunFacts& f, Verdict& v) {
  const core::RunMetrics& m = f.m;
  const auto n = static_cast<std::size_t>(m.response_time_sec.count());
  if (n + m.availability.failed_requests != requests) {
    v.fail(fmt("completed + failed requests %.0f != generated %.0f",
               static_cast<double>(n + m.availability.failed_requests),
               static_cast<double>(requests)));
  }
  if (registry_value(m, "client.request_latency.us") != static_cast<double>(n)) {
    v.fail("client.request_latency.us sample count != completed requests");
  }

  // Energy: total = disk + base, in RunMetrics and in the registry.
  const double disk_j = registry_value(m, "energy.disk.joules");
  const double base_j = registry_value(m, "energy.base.joules");
  const double total_j = registry_value(m, "energy.total.joules");
  if (!near_equal(total_j, disk_j + base_j) ||
      !near_equal(m.total_joules, m.disk_joules + m.base_joules)) {
    v.fail(fmt("energy total %.6g J != disk + base %.6g J", total_j,
               disk_j + base_j));
  }
  if (!near_equal(disk_j, m.disk_joules) || !near_equal(base_j, m.base_joules) ||
      !near_equal(total_j, m.total_joules)) {
    v.fail(fmt("registry energy %.6g J disagrees with RunMetrics %.6g J",
               total_j, m.total_joules));
  }
  // Base energy = nodes x base power x metered horizon.
  const double horizon = eevfs::ticks_to_seconds(m.makespan);
  const double want_base =
      static_cast<double>(f.nodes) * f.node_base_watts * horizon;
  if (!near_equal(m.base_joules, want_base)) {
    v.fail(fmt("base energy %.6g J != nodes x W x horizon %.6g J",
               m.base_joules, want_base));
  }
  // Disk time: RunMetrics meters each node's disks up to the horizon, so
  // per node the per-state times sum to disks x horizon.  The live disk
  // meters read after the run never fall short of it (they run on while
  // the simulator drains events left after the last response).
  // power_transitions is the paper's data-disk count (Fig. 4) only while
  // buffer disks never change power state; RunMetrics sums both kinds.
  double lo = 0.0, hi = 0.0;
  std::uint64_t buffer_transitions = 0;
  std::size_t short_disks = 0;
  std::vector<std::size_t> data_disks(f.nodes, 0), buffer_disks(f.nodes, 0);
  for (const DiskFacts& d : f.disks) {
    if (d.metered < m.makespan) ++short_disks;
    lo += d.standby_watts * horizon;
    hi += d.peak_watts * horizon;
    (d.data ? data_disks : buffer_disks).at(d.node) += 1;
    if (!d.data) buffer_transitions += d.transitions;
  }
  if (short_disks != 0) {
    v.fail(fmt("%zu disks metered less than the %.0f-tick horizon",
               short_disks, static_cast<double>(m.makespan)));
  }
  std::size_t off_nodes = 0;
  double sum_j = 0.0;
  if (m.per_node.size() != f.nodes) v.fail("RunMetrics lacks per-node rows");
  for (std::size_t i = 0; i < m.per_node.size() && i < f.nodes; ++i) {
    const core::NodeMetrics& nm = m.per_node[i];
    const auto want = [&](std::size_t disks) {
      return static_cast<Tick>(disks) * m.makespan;
    };
    if (nm.data_disk_meter.total_ticks() != want(data_disks[i]) ||
        nm.buffer_disk_meter.total_ticks() != want(buffer_disks[i])) {
      ++off_nodes;
    }
    sum_j += nm.data_disk_meter.total_joules() +
             nm.buffer_disk_meter.total_joules();
  }
  if (off_nodes != 0) {
    v.fail(fmt("%zu nodes' disk state times do not sum to disks x horizon",
               off_nodes));
  }
  if (!near_equal(sum_j, m.disk_joules)) {
    v.fail(fmt("per-node disk meters sum to %.6g J, RunMetrics says %.6g J",
               sum_j, m.disk_joules));
  }
  if (m.disk_joules < lo * (1 - 1e-9) || m.disk_joules > hi * (1 + 1e-9)) {
    v.fail(fmt("disk energy %.6g J outside [all-standby, all-peak] = "
               "[%.6g, %.6g] J",
               m.disk_joules, lo, hi));
  }
  if (buffer_transitions != 0) {
    v.fail(fmt("buffer disks made %.0f power transitions",
               static_cast<double>(buffer_transitions)));
  }

  // Durability: every acknowledged write is durable at the end.
  if (f.acked_writes_not_durable != 0 ||
      m.availability.lost_acked_writes != 0 || m.ram.lost_writes != 0 ||
      registry_value(m, "fault.lost_acked_writes.count") != 0.0) {
    v.fail(fmt("acked writes lost or not durable: %.0f (lost_acked %.0f)",
               static_cast<double>(f.acked_writes_not_durable),
               static_cast<double>(m.availability.lost_acked_writes)));
  }

  // Layers the workload bypasses do no work at all.
  auto zero = [&](bool bypassed, const std::string& name) {
    if (bypassed && registry_value(m, name) != 0.0) {
      v.fail("bypassed layer counter " + name + " is not 0");
    }
  };
  zero(!spec.erasure(), "ec.reads.count");
  zero(!spec.erasure(), "ec.chunk_requests.count");
  zero(!spec.erasure(), "ec.hedges_launched.count");
  zero(!spec.faults(), "fault.injected.count");
  zero(!spec.faults(), "recovery.episodes.count");
  zero(!spec.faults(), "recovery.replayed_writes.count");
  zero(!spec.faults(), "server.requests_rerouted.count");
  zero(!spec.writes(), "buffer.writes_buffered.count");
  zero(!spec.writes(), "buffer.writes_direct.count");
  zero(!spec.writes(), "journal.appends.count");
  if (!spec.ram()) {
    if (m.ram.enabled || m.ram.hits + m.ram.misses + m.ram.evictions != 0) {
      v.fail("RAM tier is off but RunMetrics::ram shows activity");
    }
    for (const auto& c : m.counters) {
      if (c.name.rfind("ramcache.", 0) == 0) {
        v.fail("RAM tier is off but " + c.name + " is registered");
      }
    }
  } else if (registry_value(m, "ramcache.hits.count") +
                 registry_value(m, "ramcache.misses.count") ==
             0.0) {
    v.fail("RAM tier is on but served no lookup");
  }
  if (spec.stream() != (f.stream_peak_resident != 0)) {
    v.fail("stream residency is nonzero exactly when replay streams: violated");
  }
}

WriteFindings check_trace(const WorkloadSpec& spec,
                          const std::vector<trace::TraceRecord>& sequence,
                          const RunFacts& f, Verdict& v) {
  WriteFindings found;
  if (!f.traced) {
    v.fail("trace checks need a traced replay");
    return found;
  }
  if (spec.writes() && f.client_sends.size() != spec.config.num_clients) {
    v.fail("a workload that writes needs the clients' net.send spans");
    return found;
  }
  // Bytes client c sent while [ts, ts + dur] was outstanding; clients are
  // closed-loop, so all of them belong to that request.
  auto sent_during = [&f](const ClientSpan& s) {
    const auto& sends = f.client_sends[s.client];
    auto it = std::lower_bound(
        sends.begin(), sends.end(), s.ts,
        [](const ClientSend& x, Tick t) { return x.ts < t; });
    std::int64_t bytes = 0;
    for (; it != sends.end() && it->ts <= s.ts + s.dur; ++it) {
      bytes += it->bytes;
    }
    return bytes;
  };
  if (f.trace_dropped != 0) {
    v.fail(fmt("tracer dropped %.0f events (capacity too small)",
               static_cast<double>(f.trace_dropped)));
  }
  const std::size_t clients = spec.config.num_clients;
  std::vector<std::vector<const trace::TraceRecord*>> want(clients);
  for (const auto& r : sequence) want[r.client % clients].push_back(&r);
  std::vector<std::size_t> next(clients, 0);
  double sum_ticks = 0.0;
  std::size_t ok_spans = 0;
  std::size_t mismatched = 0;
  std::size_t too_fast = 0;
  std::size_t early = 0;
  for (const ClientSpan& s : f.client_spans) {
    if (!s.ok) continue;
    ++ok_spans;
    sum_ticks += static_cast<double>(s.dur);
    const std::size_t i = next[s.client]++;
    if (i >= want[s.client].size() ||
        want[s.client][i]->file != static_cast<trace::FileId>(s.file)) {
      ++mismatched;
      continue;
    }
    const trace::TraceRecord& r = *want[s.client][i];
    if (s.ts < f.m.prefetch_duration + r.arrival) ++early;
    const double wire = static_cast<double>(r.bytes) / f.client_bytes_per_sec;
    const bool under_wire = eevfs::ticks_to_seconds(s.dur) + 1e-6 < wire;
    if (r.op == trace::Op::kWrite &&
        sent_during(s) < static_cast<std::int64_t>(r.bytes)) {
      ++found.payload_missing;
      if (under_wire) ++found.faster_than_nic;
      continue;
    }
    if (under_wire) ++too_fast;
  }
  const bool all_ok = f.m.availability.failed_requests == 0;
  for (std::size_t c = 0; c < clients; ++c) {
    if (all_ok && next[c] != want[c].size()) ++mismatched;
  }
  if (mismatched != 0 || (all_ok && ok_spans != sequence.size())) {
    v.fail(fmt("%.0f successful client.request spans for %.0f generated "
               "requests (or out of per-client order)",
               static_cast<double>(ok_spans),
               static_cast<double>(sequence.size())));
  }
  if (early != 0) {
    v.fail(fmt("%.0f requests issued before their trace arrival time",
               static_cast<double>(early)));
  }
  if (too_fast != 0) {
    v.fail(fmt("%.0f responses faster than their bytes over the client NIC",
               static_cast<double>(too_fast)));
  }
  if (ok_spans > 0) {
    const double mean =
        eevfs::ticks_to_seconds(1) * sum_ticks / static_cast<double>(ok_spans);
    if (!near_equal(mean, f.m.response_time_sec.mean())) {
      v.fail(fmt("client.request span mean %.9g s != RunMetrics mean %.9g s",
                 mean, f.m.response_time_sec.mean()));
    }
  }
  for (const NodeSpan& s : f.node_spans) {
    if (s.write && !spec.writes()) {
      v.fail("read-only workload traced a node.write span");
      break;
    }
  }
  return found;
}

void check_identical(const RunFacts& untraced, const RunFacts& traced,
                     Verdict& v) {
  if (fingerprint(untraced.m) != fingerprint(traced.m)) {
    v.fail("traced replay's RunMetrics / registry differ from the untraced "
           "replay's");
  }
}

void check_fault_plan(const WorkloadSpec& spec, Verdict& v) {
  if (!spec.erasure() || !spec.faults()) return;
  const std::size_t down = max_nodes_down(spec.config.fault_plan);
  if (down > spec.config.ec_n - spec.config.ec_k) {
    v.fail(fmt("fault plan takes %.0f nodes down at once; EC tolerates %.0f",
               static_cast<double>(down),
               static_cast<double>(spec.config.ec_n - spec.config.ec_k)));
  }
}

}  // namespace perfbench
