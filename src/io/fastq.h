// FASTQ reading and writing, streaming and whole-file.
//
// ReadSet is the in-memory form the aligner consumes: a flat vector of
// reads plus the total byte size of the FASTQ representation (the paper
// weights its Fig 3 speedup by FASTQ size, so we track it faithfully).
//
// read_fastq and read_fastq_file parse with the block parser
// (io/fastq_block.h). FastqReader, the getline parser, is kept only as
// the independent oracle the block parser's record and error parity is
// tested against; production code does not call it.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/units.h"

namespace staratlas {

struct FastqRecord {
  std::string name;      ///< without the leading '@'
  std::string sequence;  ///< ACGTN
  std::string quality;   ///< phred+33, same length as sequence
};

/// Pull-based getline FASTQ parser over any istream: the parity oracle
/// for FastqBlockReader.
class FastqReader {
 public:
  explicit FastqReader(std::istream& in) : in_(&in) {}

  /// Returns the next record, or nullopt at end of stream.
  /// Throws ParseError on malformed records (truncated block, '+' line
  /// missing, length mismatch between sequence and quality).
  std::optional<FastqRecord> next();

  /// Number of records returned so far.
  u64 records_read() const { return count_; }

  /// Exact serialized size of the 4-line FASTQ form of every record
  /// returned so far, accumulated during the parse — callers building a
  /// ReadSet can take this instead of re-walking every record.
  u64 serialized_bytes() const { return bytes_; }

 private:
  std::istream* in_;
  u64 count_ = 0;
  u64 line_ = 0;
  u64 bytes_ = 0;
  bool get_line(std::string& out);
};

/// Reads an entire stream (block parser; throws ParseError exactly as
/// FastqReader would).
std::vector<FastqRecord> read_fastq(std::istream& in);

/// Reads a FASTQ file from disk.
std::vector<FastqRecord> read_fastq_file(const std::string& path);

/// Writes records in 4-line FASTQ form.
void write_fastq(std::ostream& out, const std::vector<FastqRecord>& records);

/// Writes a FASTQ file to disk.
void write_fastq_file(const std::string& path,
                      const std::vector<FastqRecord>& records);

/// The aligner's input: reads plus their on-disk FASTQ size.
struct ReadSet {
  std::vector<FastqRecord> reads;
  ByteSize fastq_bytes;  ///< exact serialized size of the 4-line form

  usize size() const { return reads.size(); }
  bool empty() const { return reads.empty(); }
};

/// Computes the exact size of the serialized 4-line FASTQ form.
ByteSize fastq_serialized_size(const std::vector<FastqRecord>& records);

/// Builds a ReadSet (computing fastq_bytes) from records.
ReadSet make_read_set(std::vector<FastqRecord> records);

/// O(1) form for callers whose parser already accumulated the byte count
/// (FastqReader::serialized_bytes, SraStreamDecoder::serialized_bytes).
ReadSet make_read_set(std::vector<FastqRecord> records, ByteSize fastq_bytes);

}  // namespace staratlas
