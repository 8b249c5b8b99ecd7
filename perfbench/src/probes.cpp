#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/placement.hpp"
#include "core/ram_cache.hpp"
#include "measure.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

double time_stream_pass(const WorkloadSpec& spec) {
  const workload::StreamingWorkload w =
      workload::make_synthetic_stream(spec.synth);
  const double t0 = wall_now();
  auto pass = w.open();
  trace::TraceRecord r;
  std::size_t n = 0;
  while (pass->next(&r)) ++n;
  const double dt = wall_now() - t0;
  if (n != spec.synth.num_requests) {
    throw std::runtime_error("stream pass yielded a wrong request count");
  }
  return dt;
}

double time_placement(const WorkloadSpec& spec, const Inputs& in,
                      const std::vector<trace::TraceRecord>& sequence) {
  const core::ClusterConfig& cfg = spec.config;
  const std::vector<eevfs::Bytes>& sizes =
      in.eager ? in.eager->file_sizes : in.stream->file_sizes;
  // The streaming path ranks from one-pass aggregates; build them outside
  // the timed region, as Cluster::run_stream does in its own pass.
  std::vector<trace::FilePopularity> pop;
  if (!in.eager) {
    pop.resize(sizes.size());
    std::vector<eevfs::Tick> prev(sizes.size(), 0);
    std::vector<eevfs::Tick> gaps(sizes.size(), 0);
    for (const auto& r : sequence) {
      trace::FilePopularity& p = pop[r.file];
      if (p.accesses == 0) {
        p.file = r.file;
        p.first_access = r.arrival;
      } else {
        gaps[r.file] += r.arrival - prev[r.file];
      }
      ++p.accesses;
      p.bytes += r.bytes;
      p.last_access = r.arrival;
      prev[r.file] = r.arrival;
    }
    for (std::size_t f = 0; f < pop.size(); ++f) {
      if (pop[f].accesses > 1) {
        pop[f].mean_gap =
            gaps[f] / static_cast<eevfs::Tick>(pop[f].accesses - 1);
      }
    }
  }
  const double t0 = wall_now();
  const trace::PopularityAnalyzer analyzer =
      in.eager ? trace::PopularityAnalyzer(in.eager->requests)
               : trace::PopularityAnalyzer(std::move(pop), sequence.size());
  eevfs::Rng rng(cfg.seed);
  const core::PlacementMap map = core::place_files(
      cfg.placement, cfg.num_storage_nodes, sizes.size(), analyzer, sizes,
      rng, cfg.replication_degree, cfg.ec_n, cfg.ec_k);
  const double dt = wall_now() - t0;
  if (map.node_of.size() != sizes.size()) {
    throw std::runtime_error("placement left files unplaced");
  }
  return dt;
}

namespace {

struct EngineDriver {
  eevfs::sim::Simulator sim;
  eevfs::Rng rng;
  double mean_delay = 1.0;
  std::uint64_t to_schedule = 0;

  void fire() {
    if (to_schedule == 0) return;
    --to_schedule;
    const auto delay =
        static_cast<eevfs::Tick>(rng.exponential(mean_delay)) + 1;
    (void)sim.schedule_after(delay, [this] { fire(); });
  }
};

}  // namespace

double engine_ns_per_event(std::uint64_t events, std::size_t depth,
                           eevfs::Tick horizon_ticks, std::uint64_t seed) {
  depth = std::max<std::size_t>(depth, 1);
  events = std::max<std::uint64_t>(events, depth);
  EngineDriver d;
  d.rng = eevfs::Rng(seed);
  d.to_schedule = events - depth;
  // Little's law: depth pending over a horizon that executes `events`.
  d.mean_delay = std::max(
      1.0, static_cast<double>(horizon_ticks) * static_cast<double>(depth) /
               static_cast<double>(events));
  for (std::size_t i = 0; i < depth; ++i) {
    const auto at = static_cast<eevfs::Tick>(
        d.rng.uniform(0.0, 2.0 * d.mean_delay));
    (void)d.sim.schedule_at(at, [&d] { d.fire(); });
  }
  const double t0 = wall_now();
  const std::uint64_t ran = d.sim.run();
  const double dt = wall_now() - t0;
  if (ran != events) {
    throw std::runtime_error("engine probe executed a wrong event count");
  }
  return dt * 1e9 / static_cast<double>(ran);
}

double ramcache_ns_per_op(const std::vector<trace::TraceRecord>& sequence,
                          eevfs::Bytes capacity,
                          core::RamCachePolicy policy) {
  core::RamCache cache(capacity, policy);
  std::vector<std::uint64_t> weight;
  for (const auto& r : sequence) {
    if (r.file >= weight.size()) weight.resize(r.file + 1, 0);
  }
  std::uint64_t hits = 0;
  const double t0 = wall_now();
  for (const auto& r : sequence) {
    if (cache.lookup(r.file)) {
      ++hits;
    } else {
      (void)cache.admit(r.file, r.bytes, ++weight[r.file]);
    }
  }
  const double dt = wall_now() - t0;
  if (hits > sequence.size()) throw std::logic_error("impossible hit count");
  return dt * 1e9 / static_cast<double>(sequence.size());
}

}  // namespace perfbench
