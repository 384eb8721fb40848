// --quantMode GeneCounts: per-gene unique-read counting, mirroring STAR's
// ReadsPerGene.out.tab (unstranded column).
#pragma once

#include <iosfwd>
#include <vector>

#include "align/record.h"
#include "common/types.h"
#include "genome/annotation.h"
#include "index/genome_index.h"

namespace staratlas {

struct GeneCountsTable {
  std::vector<u64> per_gene;  ///< indexed by GeneId
  u64 n_unmapped = 0;
  u64 n_multimapping = 0;  ///< includes too-many-loci reads, like STAR
  u64 n_no_feature = 0;
  u64 n_ambiguous = 0;

  GeneCountsTable() = default;
  explicit GeneCountsTable(usize num_genes) : per_gene(num_genes, 0) {}

  u64 total_counted() const;
  /// Element-wise accumulate. Both tables must have the same gene
  /// dimension (the annotation-identity proxy); mismatches throw
  /// InternalError rather than silently resizing and miscounting.
  GeneCountsTable& operator+=(const GeneCountsTable& other);

  /// ReadsPerGene.out.tab-style TSV (N_* rows first, then one row per gene).
  void write_tsv(std::ostream& out, const Annotation& annotation) const;
};

/// Assigns unique alignments to genes via exon-overlap lookup.
class GeneCounter {
 public:
  GeneCounter(const Annotation& annotation, const GenomeIndex& index);

  /// Updates `table` with one read's alignment outcome.
  void count(const ReadAlignment& alignment, GeneCountsTable& table) const;

  /// Genes whose exons overlap [start, end) on `contig` (0-based).
  std::vector<GeneId> genes_overlapping(ContigId contig, u64 start,
                                        u64 end) const;

 private:
  /// Calls fn(gene) once per exon overlapping [start, end) on `contig`,
  /// so a gene may repeat. Allocates nothing.
  template <typename Fn>
  void for_each_overlapping_exon(ContigId contig, u64 start, u64 end,
                                 Fn&& fn) const;

  struct ExonInterval {
    u64 start;
    u64 end;
    GeneId gene;
  };
  const GenomeIndex* index_;
  usize num_genes_ = 0;
  std::vector<std::vector<ExonInterval>> by_contig_;  ///< sorted by start
  std::vector<u64> max_exon_length_;  ///< per contig, bounds the back-scan
};

}  // namespace staratlas
