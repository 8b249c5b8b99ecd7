// Benchmark program: replays one workload through core::Cluster and prints
// its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One run:
//  1. for `--seconds`, repeats { build inputs + construct Cluster (timed
//     as set-up), untraced replay (timed: wall, CPU, heap allocations) },
//     checking each replay and that every repetition is bit-identical;
//  2. reads peak RSS;
//  3. replays once more with tracing on (client + node spans, no drops),
//     checks the trace against the generated requests and the traced
//     RunMetrics against the untraced ones, and takes the simulated-time
//     order statistics from it;
//  4. with --trace 1, runs the per-layer host-time probes.
// The last stdout line is one JSON object: correct, attempted, failed and
// the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/cluster.hpp"
#include "core/run_report.hpp"
#include "measure.hpp"
#include "probes.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      usage(("unknown flag " + k).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One untraced repetition's host measurements.
struct Sample {
  double generate_s = 0.0;
  double ctor_s = 0.0;
  double setup_s = 0.0;
  double replay_wall_s = 0.0;
  double replay_cpu_s = 0.0;
  double allocations = 0.0;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<double> span_ms(const std::vector<ClientSpan>& spans) {
  std::vector<double> v;
  v.reserve(spans.size());
  for (const ClientSpan& s : spans) {
    if (s.ok) v.push_back(static_cast<double>(s.dur) / 1e3);
  }
  return v;
}

int run(const Args& args) {
  const WorkloadSpec spec = make_spec(args.workload, args.seed);
  const std::size_t requests = spec.synth.num_requests;
  Verdict verdict;
  check_fault_plan(spec, verdict);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Sample> samples;
  std::unique_ptr<RunFacts> first;  // the first untraced replay
  double rss_mb = 0.0;
  const double start = wall_now();
  do {
    Sample s;
    const double t0 = wall_now();
    auto in = std::make_unique<Inputs>(build_inputs(spec));
    const double t1 = wall_now();
    auto cluster = std::make_unique<core::Cluster>(spec.config);
    const double t2 = wall_now();
    s.generate_s = t1 - t0;
    s.ctor_s = t2 - t1;
    s.setup_s = t2 - t0;

    const std::uint64_t a0 = allocations();
    const double c0 = cpu_now();
    const double w0 = wall_now();
    core::RunMetrics m = replay(*cluster, spec, *in);
    const double w1 = wall_now();
    const double c1 = cpu_now();
    s.allocations = static_cast<double>(allocations() - a0);
    s.replay_wall_s = w1 - w0;
    s.replay_cpu_s = c1 - c0;
    samples.push_back(s);

    // Peak RSS after the first replay: later repetitions only add heap
    // fragmentation, which would make the figure depend on the run length.
    if (samples.size() == 1) rss_mb = peak_rss_mb() * 1.048576;  // MiB->MB
    RunFacts facts = collect_facts(*cluster, std::move(m));
    attempted += requests;
    failed += failed_operations(facts);
    if (!first) {
      check_run(spec, requests, facts, verdict);
      first = std::make_unique<RunFacts>(std::move(facts));
    } else if (fingerprint(facts.m) != fingerprint(first->m)) {
      verdict.fail("two untraced replays of the same inputs differ");
    }
  } while (wall_now() - start < args.seconds);

  // Traced replay: same inputs, spans of every client request and node
  // serve, a ring big enough to drop nothing.
  const Inputs in = build_inputs(spec);
  core::Cluster traced(traced_config(spec));
  const double tw0 = wall_now();
  core::RunMetrics tm = replay(traced, spec, in);
  const double traced_wall_s = wall_now() - tw0;
  const RunFacts tf = collect_facts(traced, std::move(tm));
  attempted += requests;
  failed += failed_operations(tf);
  const std::vector<trace::TraceRecord> sequence = request_sequence(spec, in);
  check_run(spec, requests, tf, verdict);
  const WriteFindings writes_failed = check_trace(spec, sequence, tf, verdict);
  check_identical(*first, tf, verdict);
  // Every replay is bit-identical to the traced one (checked above), so
  // each failed the same writes.
  const std::uint64_t replays = samples.size() + 1;
  failed += writes_failed.payload_missing * replays;

  auto quantile = [&](double Sample::*field, double q) {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.*field);
    return order_statistic(v, q);
  };
  auto pick = [&](double Sample::*field) { return quantile(field, 0.5); };
  // Replay cost is the 90th percentile of the repetitions (nine replays
  // in ten were at least this fast), not the fastest or the median.  On a
  // shared host, replays of identical work sit on a steady contended
  // plateau for tens of seconds at a time (paper_eager 1.32-1.43 s) and
  // scatter faster (0.88-1.30 s) while the neighbours are quiet; the
  // fastest and the median move with how much of a window the quiet
  // phases cover, the slow end stays on the plateau.  Over 18 consecutive
  // 25 s windows of one paper_eager process the quartile spreads were
  // 21 % (fastest), 14 % (median), 7 % (75th) and 3 % (90th percentile).
  auto contended = [&](double Sample::*field) { return quantile(field, 0.9); };
  const core::RunMetrics& m = first->m;
  const double n = static_cast<double>(requests);
  const double wall = contended(&Sample::replay_wall_s);

  std::vector<Metric> e2e;
  auto add = [](std::vector<Metric>& out, std::string name, double value,
                std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };
  std::vector<double> resp = span_ms(tf.client_spans);
  add(e2e, "setup_s", pick(&Sample::setup_s), "s");
  add(e2e, "requests_per_s", n / wall, "1/s");
  add(e2e, "replay_cpu_s", contended(&Sample::replay_cpu_s), "s");
  add(e2e, "peak_rss_mb", rss_mb, "MB");
  add(e2e, "energy_kJ", m.total_joules / 1e3, "kJ");
  add(e2e, "resp_p50_ms", order_statistic(resp, 0.5), "ms");
  add(e2e, "resp_p999_ms", order_statistic(resp, 0.999), "ms");
  add(e2e, "power_transitions", static_cast<double>(m.power_transitions),
          "count");
  const std::size_t tail = samples_beyond(resp, 0.999);

  std::vector<Metric> layer;
  if (args.trace == 1) {
    auto reg = [&](const std::string& name) { return registry_value(m, name); };
    const double events = reg("sim.events_executed.count");
    const double depth = reg("sim.queue_depth_peak.count");
    const double writes = static_cast<double>(
        std::count_if(sequence.begin(), sequence.end(), [](const auto& r) {
          return r.op == trace::Op::kWrite;
        }));

    std::vector<double> stream_pass, placement, report_s;
    for (int i = 0; i < 3; ++i) {
      stream_pass.push_back(time_stream_pass(spec));
      placement.push_back(time_placement(spec, in, sequence));
      const double r0 = wall_now();
      core::RunReportWriter writer("perfbench");
      writer.add_run({.name = spec.name, .config = spec.synth.label(),
                      .wall_seconds = traced_wall_s},
                     tf.m, &traced.tracer());
      std::string why;
      if (!core::validate_run_report(writer.json(), &why)) {
        verdict.fail("run report rejected by its validator: " + why);
      }
      report_s.push_back(wall_now() - r0);
    }

    add(layer, "workload.generate_s", pick(&Sample::generate_s), "s");
    add(layer, "workload.stream_pass_s", median(stream_pass), "s");
    add(layer, "core.cluster_ctor_s", pick(&Sample::ctor_s), "s");
    add(layer, "core.placement_s", median(placement), "s");
    add(layer, "sim.events_per_request", events / n, "1/request");
    add(layer, "sim.host_ns_per_event", wall * 1e9 / events, "ns");
    add(layer, "sim.engine_ns_per_event",
        engine_ns_per_event(static_cast<std::uint64_t>(events),
                            static_cast<std::size_t>(depth), m.makespan,
                            args.seed),
        "ns");
    add(layer, "sim.queue_depth_peak", depth, "count");
    add(layer, "alloc.per_request", pick(&Sample::allocations) / n,
        "1/request");
    add(layer, "net.messages_per_request", reg("net.messages_sent.count") / n,
        "1/request");
    add(layer, "net.bytes_per_request", reg("net.bytes_sent.bytes") / n, "B");
    add(layer, "server.routed_per_request",
        reg("server.requests_routed.count") / n, "1/request");
    add(layer, "server.rerouted", reg("server.requests_rerouted.count"),
        "count");
    std::vector<double> serve;
    for (const NodeSpan& s : tf.node_spans) {
      serve.push_back(static_cast<double>(s.dur) / 1e3);
    }
    add(layer, "node.serve_p50_ms", order_statistic(serve, 0.5), "ms");
    add(layer, "node.serve_p999_ms", order_statistic(serve, 0.999), "ms");
    add(layer, "disk.ops_per_request", reg("disk.requests_completed.count") / n,
        "1/request");
    add(layer, "disk.bytes_per_request",
        reg("disk.bytes_transferred.bytes") / n, "B");
    add(layer, "disk.queue_wait_mean_ms",
        registry_sample(m, "disk.queue_wait.us").mean / 1e3, "ms");
    add(layer, "disk.demand_spin_ups", reg("disk.demand_spin_ups.count"),
        "count");
    add(layer, "disk.spin_ups", reg("disk.spin_ups.count"), "count");
    add(layer, "disk.spin_downs", reg("disk.spin_downs.count"), "count");
    double standby_s = 0.0;
    for (const DiskFacts& d : first->disks) {
      if (d.data) standby_s += d.standby_seconds;
    }
    add(layer, "power.data_standby_h", standby_s / 3600.0, "h");
    add(layer, "power.wakeups_on_demand", reg("power.wakeups_on_demand.count"),
        "count");
    const double hits = reg("prefetch.buffer_hits.count");
    add(layer, "prefetch.buffer_hit_ratio",
        ratio(hits, hits + reg("prefetch.data_disk_reads.count")), "ratio");
    const double buffered = reg("buffer.writes_buffered.count");
    add(layer, "buffer.writes_buffered_ratio",
        ratio(buffered, buffered + reg("buffer.writes_direct.count")),
        "ratio");
    add(layer, "buffer.destage_backlog_peak_mb",
        reg("buffer.destage_backlog_peak.bytes") / 1e6, "MB");
    if (spec.ram()) {
      add(layer, "ramcache.hit_ratio", reg("ramcache.hit_rate.ratio"), "ratio");
      add(layer, "ramcache.evictions", reg("ramcache.evictions.count"),
          "count");
    } else {
      add(layer, "ramcache.hit_ratio", m.ram.hit_rate(), "ratio");
      add(layer, "ramcache.evictions", static_cast<double>(m.ram.evictions),
          "count");
    }
    // The standalone RamCache runs only on the workload that has the tier.
    add(layer, "ramcache.host_ns_per_op",
        spec.ram() ? ramcache_ns_per_op(sequence, spec.config.ram_cache_bytes,
                                        spec.config.ram_cache_policy)
                   : 0.0,
        "ns");
    add(layer, "journal.appends_per_write",
        ratio(reg("journal.appends.count"), writes), "1/write");
    add(layer, "journal.replay_scan_mb", reg("journal.replay_scan.bytes") / 1e6,
        "MB");
    const double ec_reads = reg("ec.reads.count");
    const double chunks = reg("ec.chunk_requests.count");
    add(layer, "ec.chunk_requests_per_read", ratio(chunks, ec_reads), "1/read");
    add(layer, "ec.useful_chunk_ratio",
        ratio(static_cast<double>(spec.config.ec_k) * ec_reads, chunks),
        "ratio");
    add(layer, "ec.hedges_launched", reg("ec.hedges_launched.count"), "count");
    add(layer, "ec.degraded_reads", reg("ec.degraded_reads.count"), "count");
    auto hist_mean_s = [&](const std::string& name) {
      return registry_sample(m, name).mean / 1e6;
    };
    add(layer, "recovery.mttr_mean_s", hist_mean_s("recovery.mttr.us"), "s");
    add(layer, "recovery.replay_s", hist_mean_s("recovery.replay_time.us"),
        "s");
    add(layer, "recovery.resync_s", hist_mean_s("recovery.resync_time.us"),
        "s");
    add(layer, "recovery.rewarm_s", hist_mean_s("recovery.rewarm_time.us"),
        "s");
    // Issue lag: each request's first attempt against its trace arrival.
    std::vector<std::vector<const trace::TraceRecord*>> per_client(
        spec.config.num_clients);
    for (const auto& r : sequence) {
      per_client[r.client % per_client.size()].push_back(&r);
    }
    std::vector<std::size_t> next(per_client.size(), 0);
    std::vector<double> lag;
    for (const ClientSpan& s : tf.client_spans) {
      if (s.attempt != 0) continue;
      const std::size_t i = next[s.client]++;
      if (i >= per_client[s.client].size()) continue;  // check_trace flags it
      const eevfs::Tick due =
          tf.m.prefetch_duration + per_client[s.client][i]->arrival;
      lag.push_back(static_cast<double>(s.ts - due) / 1e3);
    }
    add(layer, "client.issue_lag_p999_ms", order_statistic(lag, 0.999), "ms");
    add(layer, "stream.peak_resident_records",
              static_cast<double>(first->stream_peak_resident), "count");
    add(layer, "energy.disk_kJ", reg("energy.disk.joules") / 1e3, "kJ");
    add(layer, "energy.base_kJ", reg("energy.base.joules") / 1e3, "kJ");
    add(layer, "obs.trace_overhead_s", traced_wall_s - wall, "s");
    add(layer, "obs.report_s", median(report_s), "s");
  }

  // Human-readable lines first, the JSON result last.
  std::printf("workload %s seed %llu: %zu replays of %zu requests "
              "(+1 traced), %zu responses beyond p99.9\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              samples.size(), requests, tail);
  std::string walls;
  for (const Sample& s : samples) {
    char w[32];
    std::snprintf(w, sizeof w, " %.3f", s.replay_wall_s);
    walls += w;
  }
  std::printf("  untraced replay wall times (s):%s\n", walls.c_str());
  for (const std::vector<Metric>* r : {&e2e, &layer}) {
    for (const Metric& mt : *r) {
      std::printf("  %-32s %16.6f %s\n", mt.name.c_str(), mt.value,
                  mt.unit.c_str());
      if (!std::isfinite(mt.value)) {
        verdict.fail("metric " + mt.name + " is not finite");
      }
    }
  }
  std::printf("  operations attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (spec.writes()) {
    std::printf("  writes per replay %.0f: %llu acked without their payload "
                "crossing the network (failed; see README), %llu of them "
                "faster than the client NIC carries their bytes\n",
                static_cast<double>(requests / spec.write_period),
                static_cast<unsigned long long>(writes_failed.payload_missing),
                static_cast<unsigned long long>(writes_failed.faster_than_nic));
  }
  for (const std::string& e : verdict.errors()) {
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", spec.name.c_str(),
                 e.c_str());
  }
  const std::vector<Metric>& out = args.trace == 1 ? layer : e2e;
  std::string json = "{\"correct\": ";
  json += verdict.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[256];
  bool comma = false;
  for (const Metric& mt : out) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  comma ? ", " : "", mt.name.c_str(),
                  std::isfinite(mt.value) ? mt.value : 0.0, mt.unit.c_str());
    json += buf;
    comma = true;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return verdict.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
