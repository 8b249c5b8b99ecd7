#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace perfbench {

// Defined (and incremented) by alloc_count.cpp in the benchmark binary;
// this weak default keeps other binaries linking without the hook.
extern "C" __attribute__((weak)) std::uint64_t perfbench_allocations() {
  return 0;
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t allocations() { return perfbench_allocations(); }

double order_statistic(std::vector<double>& v, double q) {
  if (v.empty()) throw std::logic_error("order statistic of no samples");
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::size_t samples_beyond(std::vector<double>& v, double q) {
  const double x = order_statistic(v, q);
  return static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), x));
}

double median(std::vector<double> v) { return order_statistic(v, 0.5); }

}  // namespace perfbench
