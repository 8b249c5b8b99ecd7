// The storage server's append-only request log (paper §IV).
//
// While the online-popularity refresh runs, the server appends every
// routed request here and re-ranks the log for its prefetch decisions.
// The log also keeps a per-file EWMA of inter-access gaps
// (predicted_gap).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <vector>

#include "trace/record.hpp"
#include "trace/trace.hpp"
#include "util/units.hpp"

namespace eevfs::trace {

class AccessLog {
 public:
  /// `ewma_alpha` weights the newest gap in the inter-access estimate.
  explicit AccessLog(double ewma_alpha = 0.3);

  void append(FileId file, Tick at, Bytes bytes = 0);

  std::size_t size() const { return entries_.size(); }
  std::size_t accesses(FileId f) const;

  /// Estimated gap to the next access of `f`, from the EWMA of observed
  /// gaps; nullopt until the file has been seen at least twice.
  std::optional<Tick> predicted_gap(FileId f) const;

  /// Last time `f` was accessed; nullopt if never.
  std::optional<Tick> last_access(FileId f) const;

  /// Popularity ranking over everything logged so far (count desc,
  /// file id asc).
  std::vector<FileId> ranked() const;

  /// Exports the log as a Trace (e.g. to persist it via trace::write_trace).
  Trace to_trace() const;

 private:
  struct PerFile {
    std::size_t count = 0;
    Tick last = 0;
    double ewma_gap = 0.0;
    bool has_gap = false;
    Bytes bytes = 0;
  };

  double alpha_;
  std::vector<TraceRecord> entries_;
  std::map<FileId, PerFile> per_file_;
};

}  // namespace eevfs::trace
