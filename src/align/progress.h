// Alignment progress telemetry — the staratlas equivalent of STAR's
// Log.progress.out, which the paper's early-stopping optimization parses.
//
// ProgressTracker accumulates the outcome counts the engine's in-order
// commit feeds it (under the commit lock); ProgressLog renders snapshots
// into a STAR-style progress table.
#pragma once

#include <string>
#include <vector>

#include "align/record.h"
#include "common/types.h"

namespace staratlas {

struct ProgressSnapshot {
  u64 total_reads = 0;
  u64 processed = 0;
  u64 unique = 0;
  u64 multi = 0;
  u64 too_many = 0;
  u64 unmapped = 0;
  double elapsed_seconds = 0.0;

  double fraction_processed() const {
    return total_reads == 0
               ? 0.0
               : static_cast<double>(processed) / static_cast<double>(total_reads);
  }
  /// Mapping rate as STAR reports it: unique + multi over processed.
  double mapped_rate() const {
    return processed == 0 ? 0.0
                          : static_cast<double>(unique + multi) /
                                static_cast<double>(processed);
  }
};

class ProgressTracker {
 public:
  explicit ProgressTracker(u64 total_reads) : total_reads_(total_reads) {}

  /// Adds a completed chunk's outcome counts.
  void add(const MappingStats& chunk);

  /// Reads processed so far.
  u64 processed() const { return processed_; }

  ProgressSnapshot snapshot(double elapsed_seconds = 0.0) const;

 private:
  u64 total_reads_;
  u64 processed_ = 0;
  u64 unique_ = 0;
  u64 multi_ = 0;
  u64 too_many_ = 0;
  u64 unmapped_ = 0;
};

/// Accumulates snapshots and renders a Log.progress.out-style table.
class ProgressLog {
 public:
  void append(const ProgressSnapshot& snapshot);
  const std::vector<ProgressSnapshot>& entries() const { return entries_; }

  /// STAR-flavored text: header plus one row per snapshot with the
  /// processed-read count, % complete, and % mapped.
  std::string render() const;

 private:
  std::vector<ProgressSnapshot> entries_;
};

}  // namespace staratlas
