#include "align/gene_counts.h"

#include <algorithm>
#include <optional>
#include <ostream>

#include "common/error.h"

namespace staratlas {

u64 GeneCountsTable::total_counted() const {
  u64 total = 0;
  for (u64 c : per_gene) total += c;
  return total;
}

GeneCountsTable& GeneCountsTable::operator+=(const GeneCountsTable& other) {
  // Tables built against different annotations must not merge: silently
  // resizing would let a shard counted on another gene set pass and
  // miscount. Equal gene dimension is the annotation-identity proxy.
  STARATLAS_CHECK(per_gene.size() == other.per_gene.size());
  for (usize i = 0; i < other.per_gene.size(); ++i) {
    per_gene[i] += other.per_gene[i];
  }
  n_unmapped += other.n_unmapped;
  n_multimapping += other.n_multimapping;
  n_no_feature += other.n_no_feature;
  n_ambiguous += other.n_ambiguous;
  return *this;
}

void GeneCountsTable::write_tsv(std::ostream& out,
                                const Annotation& annotation) const {
  out << "N_unmapped\t" << n_unmapped << '\n'
      << "N_multimapping\t" << n_multimapping << '\n'
      << "N_noFeature\t" << n_no_feature << '\n'
      << "N_ambiguous\t" << n_ambiguous << '\n';
  for (usize g = 0; g < per_gene.size(); ++g) {
    out << annotation.gene(static_cast<GeneId>(g)).id << '\t' << per_gene[g]
        << '\n';
  }
}

GeneCounter::GeneCounter(const Annotation& annotation, const GenomeIndex& index)
    : index_(&index), num_genes_(annotation.num_genes()) {
  by_contig_.resize(index.contigs().size());
  max_exon_length_.assign(index.contigs().size(), 0);
  for (usize g = 0; g < annotation.num_genes(); ++g) {
    const Gene& gene = annotation.gene(static_cast<GeneId>(g));
    STARATLAS_CHECK(gene.contig < by_contig_.size());
    for (const Exon& exon : gene.exons) {
      by_contig_[gene.contig].push_back(
          {exon.start, exon.end, static_cast<GeneId>(g)});
      max_exon_length_[gene.contig] =
          std::max(max_exon_length_[gene.contig], exon.length());
    }
  }
  for (auto& intervals : by_contig_) {
    std::sort(intervals.begin(), intervals.end(),
              [](const ExonInterval& a, const ExonInterval& b) {
                return a.start < b.start;
              });
  }
}

template <typename Fn>
void GeneCounter::for_each_overlapping_exon(ContigId contig, u64 start,
                                            u64 end, Fn&& fn) const {
  STARATLAS_CHECK(contig < by_contig_.size());
  const auto& intervals = by_contig_[contig];
  if (intervals.empty() || start >= end) return;

  // Exons whose start is in [start - max_len, end): only those can overlap.
  const u64 max_len = max_exon_length_[contig];
  const u64 scan_from = start > max_len ? start - max_len : 0;
  auto it = std::lower_bound(
      intervals.begin(), intervals.end(), scan_from,
      [](const ExonInterval& e, u64 v) { return e.start < v; });
  for (; it != intervals.end() && it->start < end; ++it) {
    if (it->end > start) fn(it->gene);
  }
}

std::vector<GeneId> GeneCounter::genes_overlapping(ContigId contig, u64 start,
                                                   u64 end) const {
  std::vector<GeneId> genes;
  for_each_overlapping_exon(contig, start, end,
                            [&genes](GeneId gene) { genes.push_back(gene); });
  std::sort(genes.begin(), genes.end());
  genes.erase(std::unique(genes.begin(), genes.end()), genes.end());
  return genes;
}

void GeneCounter::count(const ReadAlignment& alignment,
                        GeneCountsTable& table) const {
  if (table.per_gene.size() < num_genes_) table.per_gene.resize(num_genes_, 0);
  switch (alignment.outcome) {
    case ReadOutcome::kUnmapped:
      ++table.n_unmapped;
      return;
    case ReadOutcome::kMultiMapped:
    case ReadOutcome::kTooManyLoci:
      ++table.n_multimapping;
      return;
    case ReadOutcome::kUniqueMapped:
      break;
  }
  STARATLAS_CHECK(!alignment.hits.empty());
  const AlignmentHit& hit = alignment.hits.front();
  // The read counts for a gene only when every overlapped exon belongs to
  // that one gene, so the first gene and whether a second one shows up
  // are all the state the decision needs.
  std::optional<GeneId> first;
  bool ambiguous = false;
  for (const AlignedSegment& segment : hit.segments) {
    const ContigLocus locus = index_->locate(segment.text_start);
    for_each_overlapping_exon(
        locus.contig, locus.offset, locus.offset + segment.length,
        [&](GeneId gene) {
          if (!first) {
            first = gene;
          } else if (gene != *first) {
            ambiguous = true;
          }
        });
  }
  if (!first) {
    ++table.n_no_feature;
  } else if (ambiguous) {
    ++table.n_ambiguous;
  } else {
    ++table.per_gene[*first];
  }
}

}  // namespace staratlas
