// FastqCount: the record and base count must agree with the block parser
// under every FASTQ quirk the parser accepts — '@' at the start of
// quality lines, CRLF endings, blank separator lines, empty reads — and
// must reject a truncated record like the parser does.
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "io/fastq_block.h"
#include "io/fastq_count.h"
#include "io/read_batch.h"

namespace staratlas {
namespace {

/// `n` records whose quality strings deliberately start with '@' (legal
/// phred+33, the classic mid-file ambiguity).
std::string tricky_fastq(usize n, const std::string& line_end = "\n",
                         const std::string& separator = "") {
  std::string out;
  for (usize i = 0; i < n; ++i) {
    const std::string seq = i % 2 ? "ACGTACGTACGT" : "TTGGCCAA";
    std::string qual(seq.size(), '@');  // '@' == phred 31
    out += "@read" + std::to_string(i) + line_end;
    out += seq + line_end;
    out += "+" + line_end;
    out += qual + line_end;
    out += separator;
  }
  return out;
}

/// The block parser's record and base count of `data`.
FastqCount parsed_count(std::string_view data) {
  FastqBlockReader reader(data);
  ReadBatch batch;
  FastqCount count;
  while (const usize got = reader.read_batch(batch, 64)) {
    count.records += got;
    for (usize i = 0; i < batch.size(); ++i) {
      count.sequence_bases += batch.sequence(i).size();
    }
    batch.clear();
  }
  return count;
}

TEST(FastqCount, CrlfAndBlankSeparatorLines) {
  for (const auto& [line_end, separator] :
       {std::pair<std::string, std::string>{"\r\n", ""},
        {"\n", "\n"},
        {"\r\n", "\r\n"}}) {
    const std::string data = tricky_fastq(23, line_end, separator);
    const FastqCount count = count_fastq_records(data);
    EXPECT_EQ(count.records, 23u);
    EXPECT_EQ(count.records, parsed_count(data).records);
    EXPECT_EQ(count.sequence_bases, parsed_count(data).sequence_bases);
  }
}

TEST(FastqCount, EmptyAndBlankOnlyInputs) {
  EXPECT_EQ(count_fastq_records("").records, 0u);
  EXPECT_EQ(count_fastq_records("\n\n\r\n\n").records, 0u);
}

TEST(FastqCount, TruncatedRecordThrows) {
  std::string data = tricky_fastq(5);
  data += "@orphan\nACGT\n";  // 2 trailing lines: not a multiple of 4
  EXPECT_THROW(count_fastq_records(data), ParseError);
}

TEST(FastqCount, CountFastqRecords) {
  EXPECT_EQ(count_fastq_records("").records, 0u);
  EXPECT_EQ(count_fastq_records(tricky_fastq(12)).records, 12u);
  EXPECT_EQ(count_fastq_records(tricky_fastq(12, "\r\n", "\n")).records,
            12u);
}

TEST(FastqCount, CountFastqRecordsSumsSequenceBasesLikeTheParser) {
  // Six records of 8 and six of 12 bases; CRLF's '\r' is not a base.
  EXPECT_EQ(count_fastq_records("").sequence_bases, 0u);
  EXPECT_EQ(count_fastq_records(tricky_fastq(12)).sequence_bases, 120u);
  const std::string crlf = tricky_fastq(12, "\r\n", "\r\n");
  EXPECT_EQ(count_fastq_records(crlf).sequence_bases, 120u);
  EXPECT_EQ(parsed_count(crlf).sequence_bases, 120u);
}

TEST(FastqCount, EmptyReadsCountLikeTheParser) {
  // An empty read has blank sequence and quality lines; the parser takes
  // them verbatim, so they are record lines, not separators.
  std::string data;
  for (int i = 0; i < 6; ++i) {
    data += "@r" + std::to_string(i) + "\n" +
            (i % 2 ? std::string("\n+\n\n") : std::string("AC\n+\nII\n"));
  }
  const FastqCount count = count_fastq_records(data);
  EXPECT_EQ(count.records, 6u);
  EXPECT_EQ(count.sequence_bases, 6u);
  EXPECT_EQ(parsed_count(data).records, 6u);
}

}  // namespace
}  // namespace staratlas
