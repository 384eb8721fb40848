#include "align/final_log.h"

#include <cstdio>

namespace staratlas {

namespace {
void row(std::string& out, const char* label, const std::string& value) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%42s |\t%s\n", label, value.c_str());
  out += buf;
}
std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", 100.0 * fraction);
  return buf;
}
}  // namespace

std::string render_final_log(const AlignmentRun& run, u64 input_reads,
                             double mean_read_length) {
  const MappingStats& stats = run.stats;
  const double processed = static_cast<double>(
      stats.processed == 0 ? 1 : stats.processed);
  std::string out;
  out += "                          staratlas Log.final.out\n";
  row(out, "Number of input reads", std::to_string(input_reads));
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", mean_read_length);
    row(out, "Average input read length", buf);
  }
  row(out, "Reads processed", std::to_string(stats.processed));
  out += "                            UNIQUE READS:\n";
  row(out, "Uniquely mapped reads number", std::to_string(stats.unique));
  row(out, "Uniquely mapped reads %",
      pct(static_cast<double>(stats.unique) / processed));
  out += "                            MULTI-MAPPING READS:\n";
  row(out, "Number of reads mapped to multiple loci",
      std::to_string(stats.multi));
  row(out, "% of reads mapped to multiple loci",
      pct(static_cast<double>(stats.multi) / processed));
  row(out, "Number of reads mapped to too many loci",
      std::to_string(stats.too_many));
  row(out, "% of reads mapped to too many loci",
      pct(static_cast<double>(stats.too_many) / processed));
  out += "                            UNMAPPED READS:\n";
  row(out, "Number of unmapped reads", std::to_string(stats.unmapped));
  row(out, "% of reads unmapped",
      pct(static_cast<double>(stats.unmapped) / processed));
  out += "                            SPEED:\n";
  {
    // Always emitted, 0.00 when unmeasurable: the log's line count must
    // not depend on whether wall time was captured, so an empty sample's
    // log has the same shape as any other.
    char buf[48];
    const double speed = run.wall_seconds > 0.0
                             ? static_cast<double>(stats.processed) / 1e6 /
                                   (run.wall_seconds / 3600.0)
                             : 0.0;
    std::snprintf(buf, sizeof(buf), "%.2f", speed);
    row(out, "Mapping speed, Million of reads per hour", buf);
  }
  if (run.aborted) {
    out += "                            NOTE:\n";
    row(out, "Run terminated early (early stopping)", "yes");
  }
  return out;
}

}  // namespace staratlas
