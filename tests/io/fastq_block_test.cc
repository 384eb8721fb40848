// FastqBlockReader must be bit-compatible with FastqReader: same records,
// same byte accounting, same ParseError text. The shared-corpus sweep
// lives in fuzz_test.cc; this file covers the deterministic cases plus the
// batch/arena mechanics.
#include "io/fastq_block.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "io/fastq.h"

namespace staratlas {
namespace {

std::vector<FastqRecord> block_parse(const std::string& text,
                                     usize block_bytes = 64,
                                     usize batch_reads = 3) {
  std::istringstream in(text);
  FastqBlockReader reader(in, block_bytes);
  ReadBatch batch;
  std::vector<FastqRecord> records;
  while (reader.read_batch(batch, batch_reads) > 0) {
    for (usize i = 0; i < batch.size(); ++i) {
      records.push_back({std::string(batch.name(i)),
                         std::string(batch.sequence(i)),
                         std::string(batch.quality(i))});
    }
    batch.clear();
  }
  return records;
}

// The oracle: the getline FastqReader, driven directly (read_fastq itself
// runs the block parser).
std::vector<FastqRecord> getline_parse(const std::string& text) {
  std::istringstream in(text);
  FastqReader reader(in);
  std::vector<FastqRecord> records;
  while (auto rec = reader.next()) records.push_back(std::move(*rec));
  return records;
}

TEST(FastqBlock, ParsesRecords) {
  const auto records =
      block_parse("@r1\nACGT\n+\nIIII\n@r2 extra\nTT\n+r2\nII\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "r1");
  EXPECT_EQ(records[0].sequence, "ACGT");
  EXPECT_EQ(records[0].quality, "IIII");
  EXPECT_EQ(records[1].name, "r2 extra");
}

TEST(FastqBlock, HandlesCrlfAndBlankLines) {
  const auto records =
      block_parse("@a\r\nAC\r\n+\r\nII\r\n\r\n\n@b\nGG\n+\nII");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "a");
  EXPECT_EQ(records[0].sequence, "AC");
  EXPECT_EQ(records[1].sequence, "GG");  // unterminated final line accepted
}

TEST(FastqBlock, NormalizesLowercaseAndRejectsBadResidues) {
  EXPECT_EQ(block_parse("@a\nacgt\n+\nIIII\n")[0].sequence, "ACGT");
  EXPECT_THROW(block_parse("@a\nACXT\n+\nIIII\n"), ParseError);
}

TEST(FastqBlock, TinyBlocksForceRefillAndGrowth) {
  // Block far smaller than any line: every next_line crosses a refill,
  // and the buffer must grow to hold the long sequence line.
  std::string seq(300, 'A');
  const std::string text = "@long_read_name_1\n" + seq + "\n+\n" +
                           std::string(300, 'I') + "\n@b\nGG\n+\nII\n";
  const auto records = block_parse(text, /*block_bytes=*/8);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].sequence, seq);
  EXPECT_EQ(records[1].name, "b");
}

TEST(FastqBlock, MatchesGetlineReaderRecordForRecord) {
  const std::string text =
      "@r1\nACGTN\n+\nIIII#\n@r2 desc\nacgt\n+junk ok\n!!!!\n"
      "\n@r3\nT\n+\nI\n";
  const auto expected = getline_parse(text);
  const auto got = block_parse(text, 16, 2);
  ASSERT_EQ(got.size(), expected.size());
  for (usize i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, expected[i].name) << i;
    EXPECT_EQ(got[i].sequence, expected[i].sequence) << i;
    EXPECT_EQ(got[i].quality, expected[i].quality) << i;
  }
}

TEST(FastqBlock, ByteAccountingMatchesReaderAndWriter) {
  std::vector<FastqRecord> records = {{"abc", "ACGT", "IIII"},
                                      {"x", "GG", "II"},
                                      {"read.3", "ACGTN", "IIII#"}};
  std::ostringstream out;
  write_fastq(out, records);
  const std::string text = out.str();

  std::istringstream block_in(text);
  FastqBlockReader block(block_in, 32);
  ReadBatch batch;
  while (block.read_batch(batch, 2) > 0) {
  }
  EXPECT_EQ(block.records_read(), records.size());
  EXPECT_EQ(block.serialized_bytes(), text.size());
  EXPECT_EQ(block.serialized_bytes(), fastq_serialized_size(records).bytes());
  EXPECT_EQ(batch.fastq_bytes(), text.size());  // batch not cleared above

  std::istringstream getline_in(text);
  FastqReader reader(getline_in);
  while (reader.next()) {
  }
  EXPECT_EQ(reader.serialized_bytes(), block.serialized_bytes());
}

TEST(FastqBlock, BatchViewsPointIntoArena) {
  std::istringstream in("@a\nACGT\n+\nIIII\n@b\nGG\n+\n!!\n");
  FastqBlockReader reader(in);
  ReadBatch batch;
  ASSERT_EQ(reader.read_batch(batch, 100), 2u);
  const ReadView v0 = batch.view(0);
  EXPECT_EQ(v0.name, "a");
  EXPECT_EQ(v0.sequence, "ACGT");
  EXPECT_EQ(v0.quality, "IIII");
  EXPECT_EQ(batch.view(1).quality, "!!");
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch.empty());

  // clear() keeps capacity (the recycling contract).
  const u64 cap = batch.capacity_bytes();
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.fastq_bytes(), 0u);
  EXPECT_EQ(batch.capacity_bytes(), cap);
}

TEST(FastqBlock, ReadBatchRespectsMaxReads) {
  std::istringstream in("@a\nA\n+\nI\n@b\nC\n+\nI\n@c\nG\n+\nI\n");
  FastqBlockReader reader(in, 16);
  ReadBatch batch;
  EXPECT_EQ(reader.read_batch(batch, 2), 2u);
  EXPECT_EQ(reader.read_batch(batch, 2), 1u);
  EXPECT_EQ(reader.read_batch(batch, 2), 0u);
  EXPECT_EQ(batch.size(), 3u);  // appended across calls
  EXPECT_EQ(reader.records_read(), 3u);
}

// Error-message parity with FastqReader, byte for byte.
void expect_same_error(const std::string& text) {
  SCOPED_TRACE(text);
  std::string getline_error;
  try {
    getline_parse(text);
  } catch (const ParseError& e) {
    getline_error = e.what();
  }
  ASSERT_FALSE(getline_error.empty()) << "corpus case must be malformed";
  try {
    block_parse(text);
    FAIL() << "block parser accepted malformed input";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), getline_error);
  }
}

TEST(FastqBlock, ErrorTextMatchesGetlineReader) {
  expect_same_error("r1\nACGT\n+\nIIII\n");            // missing '@'
  expect_same_error("@\nACGT\n+\nIIII\n");             // empty name
  expect_same_error("@r1\nACGT\n+\n");                 // truncated
  expect_same_error("@r1\nACGT\n");                    // truncated earlier
  expect_same_error("@r1\n");                          // truncated earliest
  expect_same_error("@r1\nACGT\nIIII\nIIII\n");        // missing '+'
  expect_same_error("@r1\nACGT\n\nIIII\n");            // blank '+' line
  expect_same_error("@r1\nACGT\n+\nII\n");             // length mismatch
  expect_same_error("@r1\nACGT\n+\nIIII\n@r2\nAC\n");  // second record bad
  expect_same_error("@ok\nAC\n+\nII\n@bad\nACZT\n+\nIIII\n");  // residue
}

}  // namespace
}  // namespace staratlas
