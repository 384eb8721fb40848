#include "align/sam.h"

#include <ostream>

#include "common/error.h"
#include "index/packed_sequence.h"

namespace staratlas {

namespace {

void append_cigar(std::string& out, const AlignmentHit& hit,
                  usize read_length) {
  STARATLAS_CHECK(!hit.segments.empty());
  auto emit = [&out](u64 count, char op) {
    if (count > 0) out.append(std::to_string(count)).push_back(op);
  };

  const AlignedSegment& first = hit.segments.front();
  emit(first.read_start, 'S');  // leading soft clip

  for (usize i = 0; i < hit.segments.size(); ++i) {
    const AlignedSegment& segment = hit.segments[i];
    emit(segment.length, 'M');
    if (i + 1 < hit.segments.size()) {
      const AlignedSegment& next = hit.segments[i + 1];
      const u64 read_gap = next.read_start - (segment.read_start + segment.length);
      const u64 text_gap = next.text_start - (segment.text_start + segment.length);
      STARATLAS_CHECK(text_gap >= read_gap);
      emit(text_gap - read_gap, 'N');
      // The read-gap bases were compared during scoring: they run as M
      // between the intron and the downstream segment.
      emit(read_gap, 'M');
    }
  }
  const AlignedSegment& last = hit.segments.back();
  emit(read_length - (last.read_start + last.length), 'S');  // trailing clip
}

}  // namespace

std::string cigar_string(const AlignmentHit& hit, usize read_length) {
  std::string cigar;
  append_cigar(cigar, hit, read_length);
  return cigar;
}

int star_mapq(u32 num_loci) {
  if (num_loci <= 1) return 255;
  if (num_loci == 2) return 3;
  if (num_loci <= 4) return 1;
  return 0;
}

void write_sam_header(std::ostream& out, const GenomeIndex& index) {
  out << "@HD\tVN:1.6\tSO:unsorted\n";
  for (const ContigMeta& contig : index.contigs()) {
    out << "@SQ\tSN:" << contig.name << "\tLN:" << contig.length << '\n';
  }
  out << "@PG\tID:staratlas\tPN:staratlas\tVN:1.0\n";
}

usize append_sam_records(std::string& out, const GenomeIndex& index,
                         std::string_view name, std::string_view sequence,
                         std::string_view quality,
                         const ReadAlignment& alignment) {
  if (alignment.hits.empty()) {
    out.append(name)
        .append("\t4\t*\t0\t0\t*\t*\t0\t0\t")
        .append(sequence)
        .append("\t")
        .append(quality)
        .append("\tNH:i:0\n");
    return 1;
  }
  for (usize i = 0; i < alignment.hits.size(); ++i) {
    const AlignmentHit& hit = alignment.hits[i];
    const ContigLocus locus = index.locate(hit.text_pos);
    const u32 flag = (hit.reverse ? 0x10u : 0u) | (i > 0 ? 0x100u : 0u);
    out.append(name)
        .append("\t").append(std::to_string(flag))
        .append("\t").append(index.contigs()[locus.contig].name)
        .append("\t").append(std::to_string(locus.offset + 1))
        .append("\t").append(std::to_string(star_mapq(alignment.num_loci)))
        .append("\t");
    append_cigar(out, hit, sequence.size());
    out.append("\t*\t0\t0\t");
    if (hit.reverse) {
      const usize at = out.size();
      out.resize(at + sequence.size());
      reverse_complement(sequence, out.data() + at);
      out.append("\t").append(quality.rbegin(), quality.rend());
    } else {
      out.append(sequence).append("\t").append(quality);
    }
    out.append("\tNH:i:").append(std::to_string(alignment.num_loci))
        .append("\tAS:i:").append(std::to_string(hit.score))
        .append("\n");
  }
  return alignment.hits.size();
}

SamWriter::SamWriter(std::ostream& out, const GenomeIndex& index)
    : out_(&out), index_(&index) {
  write_sam_header(out, index);
}

void SamWriter::write_read(const FastqRecord& read,
                           const ReadAlignment& alignment) {
  buffer_.clear();
  records_ += append_sam_records(buffer_, *index_, read.name, read.sequence,
                                 read.quality, alignment);
  out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
}

}  // namespace staratlas
