#include "align/progress.h"

#include <cstdio>

namespace staratlas {

void ProgressTracker::add(const MappingStats& chunk) {
  processed_ += chunk.processed;
  unique_ += chunk.unique;
  multi_ += chunk.multi;
  too_many_ += chunk.too_many;
  unmapped_ += chunk.unmapped;
}

ProgressSnapshot ProgressTracker::snapshot(double elapsed_seconds) const {
  ProgressSnapshot snap;
  snap.total_reads = total_reads_;
  snap.processed = processed_;
  snap.unique = unique_;
  snap.multi = multi_;
  snap.too_many = too_many_;
  snap.unmapped = unmapped_;
  snap.elapsed_seconds = elapsed_seconds;
  return snap;
}

void ProgressLog::append(const ProgressSnapshot& snapshot) {
  entries_.push_back(snapshot);
}

std::string ProgressLog::render() const {
  std::string out =
      "      Reads processed   %complete      %mapped(U+M)   %unique\n";
  char line[128];
  for (const auto& snap : entries_) {
    const double unique_rate =
        snap.processed == 0 ? 0.0
                            : 100.0 * static_cast<double>(snap.unique) /
                                  static_cast<double>(snap.processed);
    std::snprintf(line, sizeof(line), "%20llu   %8.1f%%   %12.1f%%   %6.1f%%\n",
                  static_cast<unsigned long long>(snap.processed),
                  100.0 * snap.fraction_processed(),
                  100.0 * snap.mapped_rate(), unique_rate);
    out += line;
  }
  return out;
}

}  // namespace staratlas
