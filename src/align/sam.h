// SAM output (STAR's Aligned.out.sam): header generation, CIGAR
// construction from alignment segments, and record formatting with
// STAR-compatible MAPQ and NH tags.
//
// append_sam_records is the one record formatter. The engine's workers
// call it on their batch buffers when a run requests SAM (the buffers are
// written at the in-order commit); SamWriter wraps it for callers that
// hold one owning FastqRecord at a time.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "align/record.h"
#include "index/genome_index.h"
#include "io/fastq.h"

namespace staratlas {

/// CIGAR for one hit: soft-clipped ends, M runs for aligned segments, N
/// for intron gaps (genomic gap larger than read gap), and the read-gap
/// part of mixed gaps as M-through (mismatch scoring absorbed the bases).
/// `read_length` is the length of the (orientation-resolved) read.
std::string cigar_string(const AlignmentHit& hit, usize read_length);

/// STAR's MAPQ convention: 255 unique, 3 for 2 loci, 1 for 3-4, 0 beyond.
int star_mapq(u32 num_loci);

/// Writes the @HD/@SQ/@PG header for the index's contigs.
void write_sam_header(std::ostream& out, const GenomeIndex& index);

/// Appends every record of one read to `out` and returns how many it
/// appended: the primary hit first, remaining hits as secondary (flag
/// 0x100), or one unmapped record (flag 0x4). Reverse-strand hits store
/// the reverse-complemented sequence and reversed qualities, per the SAM
/// convention.
usize append_sam_records(std::string& out, const GenomeIndex& index,
                         std::string_view name, std::string_view sequence,
                         std::string_view quality,
                         const ReadAlignment& alignment);

class SamWriter {
 public:
  /// Writes the header (write_sam_header).
  SamWriter(std::ostream& out, const GenomeIndex& index);

  /// Writes all records for one read (append_sam_records).
  void write_read(const FastqRecord& read, const ReadAlignment& alignment);

  u64 records_written() const { return records_; }

 private:
  std::ostream* out_;
  const GenomeIndex* index_;
  std::string buffer_;  ///< one read's records; capacity reused
  u64 records_ = 0;
};

}  // namespace staratlas
