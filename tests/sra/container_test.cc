#include "sra/container.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

TEST(Rle, RoundTrips) {
  for (const std::string& text :
       {std::string("IIIIIIII"), std::string("I#I#I#"), std::string("x"),
        std::string(1'000, 'Q'), std::string("")}) {
    EXPECT_EQ(rle_decode(rle_encode(text)), text);
  }
}

TEST(Rle, LongRunsSplitAt255) {
  const std::string text(700, 'I');
  const auto encoded = rle_encode(text);
  EXPECT_EQ(encoded.size(), 6u);  // 3 runs of <=255
  EXPECT_EQ(rle_decode(encoded), text);
}

TEST(Rle, DecodeRejectsOddLength) {
  EXPECT_THROW(rle_decode({65}), ParseError);
}

TEST(Rle, DecodeRejectsZeroRun) {
  EXPECT_THROW(rle_decode({65, 0}), ParseError);
}

std::vector<FastqRecord> sample_reads(usize n) {
  const auto& w = world();
  return w.simulator->simulate(bulk_rna_profile(), n, Rng(33)).reads;
}

SraMetadata metadata_for(const std::vector<FastqRecord>& reads) {
  SraMetadata metadata;
  metadata.accession = "SRR24100001";
  metadata.library_type = LibraryType::kBulk;
  metadata.tissue = "lung";
  metadata.num_reads = reads.size();
  for (const auto& read : reads) metadata.total_bases += read.sequence.size();
  return metadata;
}

TEST(SraContainer, RoundTripsExactly) {
  const auto reads = sample_reads(200);
  const auto container = sra_encode(metadata_for(reads), reads);
  const auto [metadata, decoded] = sra_decode(container);
  EXPECT_EQ(metadata.accession, "SRR24100001");
  EXPECT_EQ(metadata.tissue, "lung");
  ASSERT_EQ(decoded.size(), reads.size());
  for (usize i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(decoded[i].name, reads[i].name);
    EXPECT_EQ(decoded[i].sequence, reads[i].sequence);
    EXPECT_EQ(decoded[i].quality, reads[i].quality);
  }
}

TEST(SraContainer, PeekReadsHeaderOnly) {
  const auto reads = sample_reads(50);
  const auto container = sra_encode(metadata_for(reads), reads);
  const SraMetadata metadata = sra_peek(container);
  EXPECT_EQ(metadata.num_reads, 50u);
  EXPECT_EQ(metadata.library_type, LibraryType::kBulk);
}

TEST(SraContainer, SmallerThanFastq) {
  const auto reads = sample_reads(500);
  const auto container = sra_encode(metadata_for(reads), reads);
  const ByteSize fastq = fastq_serialized_size(reads);
  // Real SRA runs ~2-3x smaller than FASTQ; ours packs 4 bases/byte + RLE
  // qualities, so at least 1.8x.
  EXPECT_LT(static_cast<double>(container.size()),
            static_cast<double>(fastq.bytes()) / 1.8);
}

TEST(SraContainer, RejectsBadMagic) {
  std::vector<u8> garbage(64, 0x42);
  EXPECT_THROW(sra_decode(garbage), Error);
  EXPECT_THROW(sra_peek(garbage), Error);
}

TEST(SraContainer, RejectsTruncation) {
  const auto reads = sample_reads(20);
  auto container = sra_encode(metadata_for(reads), reads);
  container.resize(container.size() / 2);
  EXPECT_THROW(sra_decode(container), Error);
}

TEST(SraContainer, MetadataMismatchCaught) {
  const auto reads = sample_reads(5);
  SraMetadata bad = metadata_for(reads);
  bad.num_reads = 4;  // lies about the count
  EXPECT_THROW(sra_encode(bad, reads), InternalError);
}

TEST(SraContainer, EmptyRun) {
  SraMetadata metadata;
  metadata.accession = "SRR0";
  const auto container = sra_encode(metadata, {});
  const auto [decoded_meta, decoded] = sra_decode(container);
  EXPECT_TRUE(decoded.empty());
  EXPECT_EQ(decoded_meta.num_reads, 0u);
}

TEST(SraContainer, HandlesNsInReads) {
  std::vector<FastqRecord> reads = {{"r1", "ACGTNNNACGT", "IIIIIIIIIII"}};
  SraMetadata metadata = metadata_for(reads);
  const auto container = sra_encode(metadata, reads);
  const auto [meta, decoded] = sra_decode(container);
  EXPECT_EQ(decoded[0].sequence, "ACGTNNNACGT");
}

}  // namespace
}  // namespace staratlas
