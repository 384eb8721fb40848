// ShardPlan: record-boundary snapping must be exact under every FASTQ
// quirk the block parser accepts — '@' at the start of quality lines,
// CRLF endings, blank separator lines — and byte ranges must tile the
// input with read counts that sum to the total.
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "io/fastq_block.h"
#include "io/read_batch.h"
#include "io/shard_plan.h"

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

void expect_plan_consistent(const std::string& data, const ShardPlan& plan) {
  ASSERT_FALSE(plan.ranges.empty());
  EXPECT_EQ(plan.total_bytes, data.size());
  EXPECT_EQ(plan.ranges.front().byte_begin, 0u);
  EXPECT_EQ(plan.ranges.back().byte_end, data.size());
  u64 reads = 0;
  for (usize i = 0; i < plan.ranges.size(); ++i) {
    const ShardRange& range = plan.ranges[i];
    EXPECT_LE(range.byte_begin, range.byte_end);
    if (i > 0) {
      EXPECT_EQ(range.byte_begin, plan.ranges[i - 1].byte_end) << "shard " << i;
      EXPECT_EQ(range.first_read,
                plan.ranges[i - 1].first_read + plan.ranges[i - 1].num_reads);
    }
    reads += range.num_reads;
    // Every range must parse standalone to exactly its planned count.
    FastqBlockReader reader(
        std::string_view(data).substr(range.byte_begin,
                                      range.byte_end - range.byte_begin));
    ReadBatch batch;
    u64 parsed = 0;
    while (usize got = reader.read_batch(batch, 64)) parsed += got;
    EXPECT_EQ(parsed, range.num_reads) << "shard " << i;
    batch.clear();
  }
  EXPECT_EQ(reads, plan.total_reads);
}

TEST(ShardPlan, TilesAndCountsExactly) {
  const std::string data = tricky_fastq(97);
  for (usize shards : {usize{1}, usize{2}, usize{3}, usize{4}, usize{8},
                       usize{13}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const ShardPlan plan = plan_fastq_shards(data, shards);
    ASSERT_EQ(plan.num_shards(), shards);
    EXPECT_EQ(plan.total_reads, 97u);
    expect_plan_consistent(data, plan);
  }
}

TEST(ShardPlan, QualityAtSignDoesNotFoolBoundaries) {
  // Every quality line starts with '@': boundaries must still land on
  // true record headers (the standalone-parse check above would fail on a
  // quality-line boundary with a ParseError or wrong count).
  const std::string data = tricky_fastq(40);
  const ShardPlan plan = plan_fastq_shards(data, 7);
  expect_plan_consistent(data, plan);
  for (usize i = 1; i < plan.ranges.size(); ++i) {
    const ShardRange& range = plan.ranges[i];
    if (range.byte_begin == data.size()) continue;
    EXPECT_EQ(data[range.byte_begin], '@');
    // Heuristic probe agrees with the exact planner at every boundary.
    EXPECT_EQ(next_record_start(data, range.byte_begin), range.byte_begin);
  }
}

TEST(ShardPlan, CrlfAndBlankSeparatorLines) {
  for (const auto& [line_end, separator] :
       {std::pair<std::string, std::string>{"\r\n", ""},
        {"\n", "\n"},
        {"\r\n", "\r\n"}}) {
    const std::string data = tricky_fastq(23, line_end, separator);
    const ShardPlan plan = plan_fastq_shards(data, 5);
    EXPECT_EQ(plan.total_reads, 23u);
    expect_plan_consistent(data, plan);
  }
}

TEST(ShardPlan, MoreShardsThanRecordsYieldsEmptyTails) {
  const std::string data = tricky_fastq(3);
  const ShardPlan plan = plan_fastq_shards(data, 8);
  expect_plan_consistent(data, plan);
  usize non_empty = 0;
  for (const ShardRange& range : plan.ranges) {
    if (!range.empty()) ++non_empty;
  }
  EXPECT_LE(non_empty, 3u);
  EXPECT_TRUE(plan.ranges.back().empty());
  EXPECT_EQ(plan.ranges.back().byte_begin, plan.ranges.back().byte_end);
}

TEST(ShardPlan, EmptyAndBlankOnlyInputs) {
  const ShardPlan empty = plan_fastq_shards("", 4);
  EXPECT_EQ(empty.total_reads, 0u);
  for (const ShardRange& range : empty.ranges) EXPECT_TRUE(range.empty());

  const ShardPlan blanks = plan_fastq_shards("\n\n\r\n\n", 2);
  EXPECT_EQ(blanks.total_reads, 0u);
}

TEST(ShardPlan, TruncatedRecordThrows) {
  std::string data = tricky_fastq(5);
  data += "@orphan\nACGT\n";  // 2 trailing lines: not a multiple of 4
  EXPECT_THROW(plan_fastq_shards(data, 3), ParseError);
  EXPECT_THROW(count_fastq_records(data), ParseError);
}

TEST(ShardPlan, NextRecordStartScansPastQualityLines) {
  const std::string data = tricky_fastq(6);
  // From any byte inside the file, the returned offset is a real record
  // start: its line begins '@' and two non-blank lines later begins '+'.
  for (usize pos = 0; pos < data.size(); pos += 3) {
    const usize start = next_record_start(data, pos);
    if (start == data.size()) continue;
    EXPECT_EQ(data[start], '@');
    EXPECT_TRUE(start == 0 || data[start - 1] == '\n');
    // Parsing from the snapped start succeeds and yields whole records.
    FastqBlockReader reader(std::string_view(data).substr(start));
    ReadBatch batch;
    u64 parsed = 0;
    while (usize got = reader.read_batch(batch, 16)) parsed += got;
    EXPECT_GE(parsed, 1u);
  }
  // Inside the very last record, no further record start exists.
  EXPECT_EQ(next_record_start(data, data.size() - 2), data.size());
  EXPECT_EQ(next_record_start(data, data.size()), data.size());
}

TEST(ShardPlan, CountFastqRecords) {
  EXPECT_EQ(count_fastq_records("").records, 0u);
  EXPECT_EQ(count_fastq_records(tricky_fastq(12)).records, 12u);
  EXPECT_EQ(count_fastq_records(tricky_fastq(12, "\r\n", "\n")).records,
            12u);
}

TEST(ShardPlan, CountFastqRecordsSumsSequenceBasesLikeTheParser) {
  // Six records of 8 and six of 12 bases; CRLF's '\r' is not a base.
  EXPECT_EQ(count_fastq_records("").sequence_bases, 0u);
  EXPECT_EQ(count_fastq_records(tricky_fastq(12)).sequence_bases, 120u);
  const std::string crlf = tricky_fastq(12, "\r\n", "\r\n");
  EXPECT_EQ(count_fastq_records(crlf).sequence_bases, 120u);

  ReadBatch batch;
  FastqBlockReader reader(crlf);
  u64 bases = 0;
  while (reader.read_batch(batch, 64) > 0) {
    for (usize i = 0; i < batch.size(); ++i) bases += batch.sequence(i).size();
    batch.clear();
  }
  EXPECT_EQ(bases, 120u);
}

TEST(ShardPlan, EmptyReadsCountAndSnapLikeTheParser) {
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
  for (const usize shards : {usize{1}, usize{2}, usize{4}}) {
    const ShardPlan plan = plan_fastq_shards(data, shards);
    EXPECT_EQ(plan.total_reads, 6u);
    expect_plan_consistent(data, plan);
  }
}

}  // namespace
}  // namespace staratlas
