// ShardPlan: partitions one in-memory FASTQ sample into N byte-ranges
// snapped to record boundaries, for scatter/gather alignment (the
// serverless follow-up paper's "split the reads across many small
// workers" step).
//
// The planner sees the whole buffer (memory-mapped file, decoded
// container), so it counts records exactly while walking lines once with
// the block parser's grammar — blank lines between records are skipped,
// and a record is a header plus the next three lines — which sidesteps
// the classic FASTQ ambiguity that a quality line may begin with '@'.
// Each range therefore carries its exact first-read index and read count
// — the gather stage needs both to rebuild the unsharded progress log
// bit-identically (io-layer cousin of the engine's in-order commit).
//
// next_record_start() is the local heuristic form for callers that land
// mid-file without global context (a worker probing a byte offset): it
// disambiguates with the STAR/seqkit rule "line k is a record start iff
// it begins with '@' and line k+2 begins with '+'" — quality lines may
// start with '@', but sequence lines never start with '+'. Tests verify
// it agrees with the exact planner on every planned boundary.
#pragma once

#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "io/fastq_block.h"

namespace staratlas {

/// One shard's slice of the sample. Byte ranges are half-open, tile the
/// input exactly, and begin on a record boundary (or at end-of-input for
/// empty tail shards when num_shards exceeds the record count).
struct ShardRange {
  usize byte_begin = 0;
  usize byte_end = 0;
  u64 first_read = 0;  ///< global index of the range's first record
  u64 num_reads = 0;   ///< exact record count within the range

  bool empty() const { return num_reads == 0; }
};

struct ShardPlan {
  usize total_bytes = 0;
  u64 total_reads = 0;
  std::vector<ShardRange> ranges;  ///< exactly num_shards entries

  usize num_shards() const { return ranges.size(); }
};

/// Splits `data` into `num_shards` contiguous ranges of near-equal byte
/// size, each snapped forward to the next record boundary. Single O(data)
/// newline walk; O(1) memory beyond the plan itself. Shards past the last
/// record come back empty (byte_begin == byte_end == data.size()), so any
/// shard count is valid. Throws ParseError if the input ends inside a
/// record (the block parser's truncation error), caught before any worker
/// starts.
ShardPlan plan_fastq_shards(std::string_view data, usize num_shards);

/// First record boundary at or after `pos`, found heuristically: scans
/// forward to the next line start, then returns the first non-blank line
/// L_k that begins with '@' whose second-next non-blank line begins with
/// '+'. Returns data.size() when no full record follows. Handles CRLF and
/// blank separator lines like the block parser.
usize next_record_start(std::string_view data, usize pos);

struct FastqCount {
  u64 records = 0;
  /// Summed sequence-line lengths ('\r' excluded, as the parser strips
  /// it): records and bases give the sample's mean read length.
  u64 sequence_bases = 0;
};

/// Exact record and base count of a well-formed buffer, from the same
/// single line walk as the planner. Throws ParseError when the input ends
/// inside a record.
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
