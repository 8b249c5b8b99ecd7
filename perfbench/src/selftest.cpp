// Self-test of the benchmark's checkers: each is fed a pristine replay of
// every workload (at a reduced request count, on two seeds) and must
// accept it, then deliberately corrupted copies, each of which it must
// reject.  Exit status 0 only when every case behaves.
//
//   perfbench_selftest
#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/cluster.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

struct Replays {
  WorkloadSpec spec;
  RunFacts untraced;
  RunFacts traced;
  std::vector<trace::TraceRecord> sequence;
};

Replays run_pair(const std::string& name, std::uint64_t seed) {
  Replays r{.spec = make_spec(name, seed, 4096), .untraced = {}, .traced = {},
            .sequence = {}};
  const Inputs in = build_inputs(r.spec);
  {
    core::Cluster c(r.spec.config);
    r.untraced = collect_facts(c, replay(c, r.spec, in));
  }
  core::Cluster c(traced_config(r.spec));
  r.traced = collect_facts(c, replay(c, r.spec, in));
  r.sequence = request_sequence(r.spec, in);
  return r;
}

/// All checks over (untraced, traced); returns the verdict.
Verdict check_all(const Replays& r, const RunFacts& untraced,
                  const RunFacts& traced) {
  Verdict v;
  const std::size_t n = r.spec.synth.num_requests;
  check_fault_plan(r.spec, v);
  check_run(r.spec, n, untraced, v);
  check_run(r.spec, n, traced, v);
  check_trace(r.spec, r.sequence, traced, v);
  check_identical(untraced, traced, v);
  return v;
}

void expect_rejected(const Replays& r, const std::string& what,
                     const std::function<void(RunFacts& u, RunFacts& t)>& bad) {
  RunFacts u = r.untraced;
  RunFacts t = r.traced;
  bad(u, t);
  const Verdict v = check_all(r, u, t);
  expect(!v.ok(), r.spec.name + ": rejects " + what +
                      (v.ok() ? "" : " (" + v.errors().front() + ")"));
}

void set_sample(core::RunMetrics& m, const std::string& name, double value) {
  for (auto& s : m.counters) {
    if (s.name == name) s.value = value;
  }
}

}  // namespace

int main() {
  try {
    for (const std::string& name : workload_names()) {
      for (std::uint64_t seed : {1u, 2u}) {
        const Replays r = run_pair(name, seed);
        const Verdict v = check_all(r, r.untraced, r.traced);
        expect(v.ok(), name + " seed " + std::to_string(seed) +
                           ": pristine replay passes every check" +
                           (v.ok() ? "" : " (" + v.errors().front() + ")"));
        if (seed != 1) continue;

        expect_rejected(r, "one request missing", [](RunFacts&, RunFacts& t) {
          for (auto it = t.client_spans.begin(); it != t.client_spans.end();
               ++it) {
            if (it->ok) {
              t.client_spans.erase(it);
              break;
            }
          }
        });
        expect_rejected(r, "energy split off by 1%", [](RunFacts& u,
                                                         RunFacts&) {
          const double disk = registry_value(u.m, "energy.disk.joules");
          set_sample(u.m, "energy.disk.joules", disk * 1.01);
        });
        expect_rejected(r, "a lost acked write", [](RunFacts& u, RunFacts&) {
          u.m.availability.lost_acked_writes += 1;
        });
        expect_rejected(r, "a dropped trace event", [](RunFacts&,
                                                       RunFacts& t) {
          t.trace_dropped = 1;
        });
        {
          // A field no other check reads: only the bit-identity check can
          // see it.
          RunFacts t = r.traced;
          t.m.wakeups_on_demand += 1;
          Verdict v2;
          check_identical(r.untraced, t, v2);
          expect(!v2.ok(), name + ": rejects a traced/untraced mismatch");
        }
        expect_rejected(r, "a response faster than the client NIC",
                        [](RunFacts&, RunFacts& t) {
                          for (auto& s : t.client_spans) {
                            if (s.ok) {
                              s.dur = 1;
                              break;
                            }
                          }
                        });

        if (r.spec.writes()) {
          // The payload check counts a write as failed exactly when its
          // client sent fewer bytes than the write carries meanwhile.
          RunFacts t = r.traced;
          for (auto& sends : t.client_sends) sends.clear();
          const std::size_t writes = r.sequence.size() / r.spec.write_period;
          Verdict v2;
          expect(check_trace(r.spec, r.sequence, t, v2).payload_missing ==
                     writes,
                 name + ": counts every write failed when no payload is sent");
          std::vector<std::vector<const trace::TraceRecord*>> per_client(
              r.spec.config.num_clients);
          for (const auto& rec : r.sequence) {
            per_client[rec.client % per_client.size()].push_back(&rec);
          }
          std::vector<std::size_t> at(per_client.size(), 0);
          for (const ClientSpan& s : t.client_spans) {
            if (!s.ok) continue;
            const trace::TraceRecord& rec =
                *per_client[s.client][at[s.client]++];
            if (rec.op == trace::Op::kWrite) {
              t.client_sends[s.client].push_back(
                  {.ts = s.ts, .bytes = static_cast<std::int64_t>(rec.bytes)});
            }
          }
          for (auto& sends : t.client_sends) {
            std::stable_sort(sends.begin(), sends.end(),
                             [](const ClientSend& a, const ClientSend& b) {
                               return a.ts < b.ts;
                             });
          }
          Verdict v3;
          expect(check_trace(r.spec, r.sequence, t, v3).payload_missing == 0,
                 name + ": counts no write failed when each sends its bytes");
        }

        // A renamed registry counter fails loudly instead of reading 0.
        RunFacts u = r.untraced;
        std::erase_if(u.m.counters, [](const eevfs::obs::Sample& s) {
          return s.name == "energy.disk.joules";
        });
        bool threw = false;
        try {
          Verdict v2;
          check_run(r.spec, r.spec.synth.num_requests, u, v2);
        } catch (const std::runtime_error& e) {
          threw = std::string(e.what()).find("energy.disk.joules") !=
                  std::string::npos;
        }
        expect(threw, name + ": a missing registry name fails, naming it");
      }
    }
    // A fault plan that takes n - k + 1 nodes down at once is refused.
    WorkloadSpec ec = make_spec("ec_crash", 1, 4096);
    ec.config.fault_plan = {};
    for (std::size_t node = 0; node < 3; ++node) {
      ec.config.fault_plan.crash_node(10.0, node).restart_node(40.0, node);
    }
    Verdict v;
    check_fault_plan(ec, v);
    expect(!v.ok(), "ec_crash: rejects a plan beyond n - k nodes down");
  } catch (const std::exception& e) {
    std::printf("FAIL unexpected exception: %s\n", e.what());
    return 1;
  }
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
