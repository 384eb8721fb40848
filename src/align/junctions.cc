#include "align/junctions.h"

#include <algorithm>
#include <ostream>

#include "common/error.h"

namespace staratlas {

u64 left_shift_intron(std::string_view contig_seq, u64 start, u64 end) {
  STARATLAS_CHECK(start < end && end <= contig_seq.size());
  while (start > 0 && contig_seq[start - 1] == contig_seq[end - 1]) {
    --start;
    --end;
  }
  return start;
}

JunctionCollector::JunctionCollector(const GenomeIndex& index, u64 min_intron)
    : index_(&index), min_intron_(min_intron) {}

void JunctionCollector::add(const ReadAlignment& alignment) {
  if (alignment.hits.empty()) return;
  const bool unique = alignment.outcome == ReadOutcome::kUniqueMapped;
  if (!unique && alignment.outcome != ReadOutcome::kMultiMapped) return;

  const AlignmentHit& hit = alignment.hits.front();
  for (usize i = 0; i + 1 < hit.segments.size(); ++i) {
    const AlignedSegment& a = hit.segments[i];
    const AlignedSegment& b = hit.segments[i + 1];
    const u64 read_gap = b.read_start - (a.read_start + a.length);
    const u64 text_gap = b.text_start - (a.text_start + a.length);
    STARATLAS_CHECK(text_gap >= read_gap);
    const u64 intron = text_gap - read_gap;
    if (intron < min_intron_) continue;  // small indel, not a junction

    // The intron begins right after segment a (plus any read-gap bases
    // attributed downstream — the donor side is a's end). Normalize the
    // boundary to its leftmost equivalent position so reads whose match
    // slid into the intron by chance collapse onto one junction.
    const GenomePos donor = a.text_start + a.length;
    const ContigLocus locus = index_->locate(donor);
    const ContigMeta& meta = index_->contigs()[locus.contig];
    const u64 start = left_shift_intron(
        index_->text().substr(meta.text_offset, meta.length), locus.offset,
        locus.offset + intron);
    // Junctions never span contigs (windows are per-contig).
    Key key{locus.contig, start, start + intron};
    Support& support = table_[key];
    if (unique) {
      ++support.unique_reads;
    } else {
      ++support.multi_reads;
    }
    support.max_overhang =
        std::max(support.max_overhang, std::min(a.length, b.length));
  }
}

std::vector<Junction> JunctionCollector::junctions() const {
  std::vector<Junction> result;
  result.reserve(table_.size());
  for (const auto& [key, support] : table_) {
    Junction junction;
    junction.contig = key.contig;
    junction.intron_start = key.start;
    junction.intron_end = key.end;
    junction.unique_reads = support.unique_reads;
    junction.multi_reads = support.multi_reads;
    junction.max_overhang = support.max_overhang;
    result.push_back(junction);
  }
  return result;  // std::map iteration is already sorted by key
}

JunctionCollector& JunctionCollector::operator+=(
    const JunctionCollector& other) {
  // Junction keys are (contig id, text offsets): merging tables built
  // against different genomes silently misaligns contig ids and write_tsv
  // prints the wrong contig names. Same engine-local merges share the
  // index object; cross-process shard merges (separately loaded copies)
  // are allowed through when the content fingerprints agree.
  STARATLAS_CHECK(min_intron_ == other.min_intron_);
  STARATLAS_CHECK(index_ == other.index_ ||
                  index_->fingerprint() == other.index_->fingerprint());
  for (const auto& [key, support] : other.table_) {
    Support& mine = table_[key];
    mine.unique_reads += support.unique_reads;
    mine.multi_reads += support.multi_reads;
    mine.max_overhang = std::max(mine.max_overhang, support.max_overhang);
  }
  return *this;
}

void JunctionCollector::write_tsv(std::ostream& out) const {
  write_junctions_tsv(out, junctions(), *index_);
}

void write_junctions_tsv(std::ostream& out,
                         const std::vector<Junction>& junctions,
                         const GenomeIndex& index) {
  for (const Junction& junction : junctions) {
    out << index.contigs()[junction.contig].name << '\t'
        << junction.intron_start + 1 << '\t' << junction.intron_end
        << "\t0\t0\t0\t" << junction.unique_reads << '\t'
        << junction.multi_reads << '\t' << junction.max_overhang << '\n';
  }
}

}  // namespace staratlas
