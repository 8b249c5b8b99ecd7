// Extension bench: intra-node striping (paper §VII — "we also plan to
// investigate striping techniques within EEVFS that can help improve the
// performance of EEVFS, while still maintaining energy savings").
// Sweeps the stripe width across data sizes and reports the
// energy/response tradeoff.
#include <cstdio>

#include "harness.hpp"
#include "util/string_util.hpp"

using namespace eevfs;

int main(int argc, char** argv) {
  bench::init(argc, argv);
  auto out = bench::open_output(
      "ablation_striping",
      {"data_mb", "stripe_width", "pf_joules", "gain_vs_npf", "resp_mean_s",
       "resp_p95_s", "transitions"});
  bench::banner("Striping (extension, §VII)",
                "stripe width vs energy and response time",
                "MU=1000, K=70, inter-arrival=700ms; 4 data disks per node");

  std::printf("%-9s %-7s %14s %8s %10s %10s %12s\n", "size", "width",
              "PF (J)", "gain", "resp (s)", "p95 (s)", "transitions");
  for (const double mb : {10.0, 25.0, 50.0}) {
    const auto w = bench::paper_workload(mb);
    // NPF reference with the same disk count.
    core::ClusterConfig npf_cfg = bench::paper_config();
    npf_cfg.data_disks_per_node = 4;
    core::RunMetrics npf;
    {
      core::Cluster c(core::without_prefetch(npf_cfg));
      npf = c.run(w);
    }
    out->add_run(format("mb=%.0f/npf", mb), npf);
    for (const std::size_t width : {1u, 2u, 4u}) {
      core::ClusterConfig cfg = bench::paper_config();
      cfg.data_disks_per_node = 4;
      cfg.stripe_width = width;
      core::Cluster c(cfg);
      const core::RunMetrics m = c.run(w);
      std::printf("%-9.0f %-7zu %14.4e %8s %10.3f %10.3f %12llu\n", mb,
                  width, m.total_joules,
                  bench::pct(m.energy_gain_vs(npf)).c_str(),
                  m.response_time_sec.mean(), m.response_p95_sec,
                  static_cast<unsigned long long>(m.power_transitions));
      out->row({CsvWriter::cell(mb),
                CsvWriter::cell(static_cast<std::uint64_t>(width)),
                CsvWriter::cell(m.total_joules),
                CsvWriter::cell(m.energy_gain_vs(npf)),
                CsvWriter::cell(m.response_time_sec.mean()),
                CsvWriter::cell(m.response_p95_sec),
                CsvWriter::cell(m.power_transitions)});
      out->add_run(format("mb=%.0f/stripe=%zu", mb, width), m);
    }
  }
  std::printf("\nexpected shape: wider stripes cut miss service time "
              "(parallel disk\nphase) but gang-wake the stripe set, eroding "
              "the energy gain — the\npaper's \"maintain energy savings\" "
              "goal favours narrow stripes plus the\nbuffer disk absorbing "
              "the hot set.\n");
  out->finish();
  return 0;
}
