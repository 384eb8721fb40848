// Splice-junction collection — STAR's SJ.out.tab.
//
// Every gap in a spliced alignment whose genomic span exceeds its read
// span by more than a small-indel allowance is a candidate intron; the
// collector tallies unique- and multi-mapper support and the maximum
// spanning overhang per junction.
#pragma once

#include <iosfwd>
#include <map>
#include <string_view>
#include <vector>

#include "align/record.h"
#include "common/types.h"
#include "index/genome_index.h"

namespace staratlas {

/// Left-shifts an intron to its canonical leftmost-equivalent position:
/// (start, end) and (start-1, end-1) describe the same spliced alignment
/// whenever seq[start-1] == seq[end-1]. Returns the normalized start
/// (end shifts by the same amount). This is the same ambiguity STAR's
/// junction database resolves.
u64 left_shift_intron(std::string_view contig_seq, u64 start, u64 end);

struct Junction {
  ContigId contig = 0;
  u64 intron_start = 0;  ///< 0-based first intronic base
  u64 intron_end = 0;    ///< 0-based one past the last intronic base
  u64 unique_reads = 0;
  u64 multi_reads = 0;
  u64 max_overhang = 0;  ///< longest flanking aligned block among supporters

  u64 intron_length() const { return intron_end - intron_start; }
};

class JunctionCollector {
 public:
  /// Gaps shorter than `min_intron` are treated as deletions, not introns
  /// (STAR: alignIntronMin, default 21).
  explicit JunctionCollector(const GenomeIndex& index, u64 min_intron = 21);

  /// Records the junctions of one read's best hit (unique and multi reads
  /// both contribute, to their respective counters, like STAR).
  void add(const ReadAlignment& alignment);

  /// Junctions sorted by (contig, intron_start, intron_end).
  std::vector<Junction> junctions() const;

  /// Merges another collector (for per-thread accumulation). Both
  /// collectors must use the same min_intron and reference the same
  /// genome — the same index object, or (for collectors fed by separate
  /// index loads, e.g. cross-process shards) indexes whose fingerprint()
  /// matches. Violations throw InternalError instead of silently
  /// misaligning contig ids.
  JunctionCollector& operator+=(const JunctionCollector& other);

  /// Drops all tallied junctions (index and min_intron keep). Lets the
  /// streaming engine reuse per-slot collectors across batches.
  void clear() { table_.clear(); }

  /// SJ.out.tab-style TSV: contig, 1-based intron start/end, strand=0,
  /// motif=0, annotated=0, unique count, multi count, max overhang.
  void write_tsv(std::ostream& out) const;

  usize size() const { return table_.size(); }

 private:
  struct Key {
    ContigId contig;
    u64 start;
    u64 end;
    auto operator<=>(const Key&) const = default;
  };
  struct Support {
    u64 unique_reads = 0;
    u64 multi_reads = 0;
    u64 max_overhang = 0;
  };

  const GenomeIndex* index_;
  u64 min_intron_;
  std::map<Key, Support> table_;
};

/// SJ.out.tab rendering of an extracted junction vector (shared by the
/// collector, the CLI and the service artifacts, so all three emit
/// byte-identical tables).
void write_junctions_tsv(std::ostream& out,
                         const std::vector<Junction>& junctions,
                         const GenomeIndex& index);

}  // namespace staratlas
