// Host-side measurement helpers: wall and CPU clocks, peak RSS, the
// heap-allocation counter, and the exact order statistics every reported
// percentile uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double wall_now();
/// User + system CPU time of this process, seconds (getrusage).
double cpu_now();
/// Peak resident set size of this process so far, MB (2^20 bytes).
double peak_rss_mb();

/// Heap allocations (operator new calls) made by this process so far.
/// Counts only in the benchmark binary, which links the counting
/// operator new; elsewhere it reads 0.
std::uint64_t allocations();

/// Exact nearest-rank order statistic: the smallest sample with at least
/// q * n samples at or below it.  Sorts `v`.  Throws on an empty vector.
double order_statistic(std::vector<double>& v, double q);
/// Count of samples strictly above the q order statistic (the tail the
/// percentile summarises).
std::size_t samples_beyond(std::vector<double>& v, double q);

double median(std::vector<double> v);

}  // namespace perfbench
