// Streaming workload path: SyntheticStream must reproduce
// generate_synthetic record-for-record, and Cluster::run_stream must
// agree with Cluster::run whenever the hints the two entries derive are
// not consulted.
#include "workload/stream.hpp"

#include <gtest/gtest.h>

#include "baseline/presets.hpp"
#include "core/cluster.hpp"
#include "workload/synthetic.hpp"

namespace eevfs::workload {
namespace {

void expect_same_sequence(const SyntheticConfig& cfg) {
  const Workload eager = generate_synthetic(cfg);
  const StreamingWorkload lazy = make_synthetic_stream(cfg);

  ASSERT_EQ(lazy.file_sizes, eager.file_sizes);
  ASSERT_EQ(lazy.num_requests, eager.requests.size());
  EXPECT_EQ(lazy.name, eager.name);

  // Two independent passes, both checked against the eager trace —
  // passes must be deterministic and restartable.
  for (int pass = 0; pass < 2; ++pass) {
    auto stream = lazy.open();
    trace::TraceRecord r;
    std::size_t i = 0;
    while (stream->next(&r)) {
      ASSERT_LT(i, eager.requests.size());
      const trace::TraceRecord& e = eager.requests[i];
      ASSERT_EQ(r.arrival, e.arrival) << "pass " << pass << " record " << i;
      ASSERT_EQ(r.file, e.file) << "pass " << pass << " record " << i;
      ASSERT_EQ(r.bytes, e.bytes) << "pass " << pass << " record " << i;
      ASSERT_EQ(r.client, e.client) << "pass " << pass << " record " << i;
      ++i;
    }
    EXPECT_EQ(i, eager.requests.size());
  }
}

TEST(StreamWorkload, MatchesGenerateSyntheticFixedSpacing) {
  SyntheticConfig cfg;
  cfg.num_requests = 400;
  cfg.mu = 100.0;
  expect_same_sequence(cfg);
}

TEST(StreamWorkload, MatchesGenerateSyntheticJitteredAndDispersed) {
  SyntheticConfig cfg;
  cfg.num_requests = 400;
  cfg.mu = 10.0;
  cfg.inter_arrival_jitter = 1.0;
  cfg.size_sigma = 0.5;
  cfg.seed = 7;
  expect_same_sequence(cfg);
}

// With prefetching off and the power policy disabled the streaming
// path's modeled access-pattern hints are never consulted, so run() and
// run_stream() execute the identical replay and every metric must match
// bit-exactly — same-tick arrival ties included (both entries wake the
// clients one pull reaches in client-index order).
TEST(StreamWorkload, RunStreamMatchesRunWithoutHints) {
  core::ClusterConfig ccfg = baseline::eevfs_pf();
  ccfg.enable_prefetch = false;
  ccfg.power_policy = core::PowerPolicy::kNone;

  for (const double gap_ms : {700.0, 0.0}) {
    SCOPED_TRACE(gap_ms);
    SyntheticConfig wcfg;
    wcfg.num_requests = 300;
    wcfg.mu = 100.0;
    wcfg.inter_arrival_ms = gap_ms;

    core::Cluster eager(ccfg);
    const core::RunMetrics a = eager.run(generate_synthetic(wcfg));
    core::Cluster lazy(ccfg);
    const core::RunMetrics b = lazy.run_stream(make_synthetic_stream(wcfg));

    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.total_joules, b.total_joules);  // bit-exact
    EXPECT_EQ(a.disk_joules, b.disk_joules);
    EXPECT_EQ(a.bytes_served, b.bytes_served);
    EXPECT_EQ(a.buffer_hits, b.buffer_hits);
    EXPECT_EQ(a.data_disk_reads, b.data_disk_reads);
    EXPECT_EQ(a.response_time_sec.mean(), b.response_time_sec.mean());
    EXPECT_EQ(a.response_p99_sec, b.response_p99_sec);
    EXPECT_EQ(eager.stream_peak_resident_records(), 0u);
    if (gap_ms > 0.0) {
      // The 1 s window re-arms the pump between arrivals, so the
      // streaming run executes strictly more events for the same outcome.
      EXPECT_GT(lazy.executed_events(), eager.executed_events());
    } else {
      // Every arrival lands on one tick: one pull takes the whole trace
      // in both entries and no pump timer fires.
      EXPECT_EQ(lazy.executed_events(), eager.executed_events());
    }
  }
}

// num_requests is checked against what the setup pass counts.  Trusted,
// an overstated count drains the simulation with responses still
// "outstanding", and an understated one finishes the run (metering and
// shutting the nodes down) while records are still queued.
void expect_miscount_rejected(std::size_t declared) {
  SyntheticConfig wcfg;
  wcfg.num_requests = 50;
  StreamingWorkload w = make_synthetic_stream(wcfg);
  w.num_requests = declared;
  core::Cluster c(baseline::eevfs_pf());
  EXPECT_THROW(c.run_stream(w), std::invalid_argument);
}

TEST(StreamWorkload, RunStreamRejectsOverstatedRequestCount) {
  expect_miscount_rejected(51);
}

TEST(StreamWorkload, RunStreamRejectsUnderstatedRequestCount) {
  expect_miscount_rejected(49);
}

TEST(StreamWorkload, RunStreamServesAllWithBoundedResidency) {
  SyntheticConfig wcfg;
  wcfg.num_requests = 2000;
  wcfg.mu = 100.0;
  wcfg.inter_arrival_ms = 350.0;

  core::Cluster c(baseline::eevfs_pf());
  const core::RunMetrics m = c.run_stream(make_synthetic_stream(wcfg));

  EXPECT_EQ(m.requests, wcfg.num_requests);
  EXPECT_EQ(m.response_time_sec.count(), wcfg.num_requests);
  EXPECT_EQ(m.availability.failed_requests, 0u);
  EXPECT_GT(m.total_joules, 0.0);
  // The whole point of the streaming path: the replay never holds more
  // than the look-ahead window, far below the full trace.
  EXPECT_GT(c.stream_peak_resident_records(), 0u);
  EXPECT_LT(c.stream_peak_resident_records(), wcfg.num_requests / 2);
}

TEST(StreamWorkload, RunStreamIsDeterministic) {
  SyntheticConfig wcfg;
  wcfg.num_requests = 500;
  wcfg.mu = 10.0;

  const core::ClusterConfig ccfg = baseline::eevfs_pf();
  core::Cluster a(ccfg), b(ccfg);
  const core::RunMetrics ma = a.run_stream(make_synthetic_stream(wcfg));
  const core::RunMetrics mb = b.run_stream(make_synthetic_stream(wcfg));
  EXPECT_EQ(ma.total_joules, mb.total_joules);  // bit-exact
  EXPECT_EQ(ma.makespan, mb.makespan);
  EXPECT_EQ(ma.power_transitions, mb.power_transitions);
  EXPECT_EQ(a.stream_peak_resident_records(),
            b.stream_peak_resident_records());
}

TEST(StreamWorkload, RunStreamRejectsOnlinePopularity) {
  SyntheticConfig wcfg;
  wcfg.num_requests = 50;
  core::ClusterConfig ccfg = baseline::eevfs_pf();
  ccfg.online_popularity = true;
  core::Cluster c(ccfg);
  EXPECT_THROW(c.run_stream(make_synthetic_stream(wcfg)),
               std::invalid_argument);
}

}  // namespace
}  // namespace eevfs::workload
