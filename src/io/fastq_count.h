// FastqCount: exact record and base count of a FASTQ input without
// parsing it into reads. The CLI's --early-stop run needs the sample's
// read count before alignment starts (to place the 10% checkpoint), and
// the fuzz tests check the block parser's counts against it.
//
// The count walks lines once with the block parser's grammar: blank lines
// between records are skipped, and a record is a header plus the next
// three lines, which sidesteps the classic FASTQ ambiguity that a quality
// line may begin with '@'.
#pragma once

#include <iosfwd>
#include <string_view>

#include "common/types.h"
#include "io/fastq_block.h"

namespace staratlas {

struct FastqCount {
  u64 records = 0;
  /// Summed sequence-line lengths ('\r' excluded, as the parser strips
  /// it): records and bases give the sample's mean read length.
  u64 sequence_bases = 0;
};

/// Exact record and base count of a well-formed buffer in a single line
/// walk. Throws ParseError when the input ends inside a record.
FastqCount count_fastq_records(std::string_view data);

/// The same count over a stream read in `block_bytes` blocks, for a file
/// too large to hold: one buffer of that size whatever the input size.
/// Equal to the buffer form on the same bytes, ParseError text included,
/// at any block size. Reads `in` to its end; throws IoError on a read
/// failure.
FastqCount count_fastq_records(
    std::istream& in,
    usize block_bytes = FastqBlockReader::kDefaultBlockBytes);

}  // namespace staratlas
