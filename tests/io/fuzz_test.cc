// Robustness fuzzing: parsers and binary decoders must never crash on
// corrupted input — every failure surfaces as a staratlas::Error.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "align/aligner.h"
#include "index/genome_index.h"
#include "io/fasta.h"
#include "io/fastq.h"
#include "io/fastq_block.h"
#include "io/gtf.h"
#include "sra/container.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::world;

// Flip, insert, delete and truncate bytes of a valid payload.
std::string corrupt(std::string payload, Rng& rng) {
  const usize edits = 1 + rng.uniform(8);
  for (usize e = 0; e < edits && !payload.empty(); ++e) {
    switch (rng.uniform(4)) {
      case 0:  // flip
        payload[rng.uniform(payload.size())] =
            static_cast<char>(rng.uniform(256));
        break;
      case 1:  // insert
        payload.insert(payload.begin() + static_cast<i64>(rng.uniform(payload.size())),
                       static_cast<char>(rng.uniform(256)));
        break;
      case 2:  // delete
        payload.erase(payload.begin() + static_cast<i64>(rng.uniform(payload.size())));
        break;
      default:  // truncate
        payload.resize(rng.uniform(payload.size()) + 1);
        break;
    }
  }
  return payload;
}

TEST(Fuzz, FastqParserNeverCrashes) {
  Rng rng(101);
  const std::string valid = "@r1\nACGT\n+\nIIII\n@r2\nGGCC\n+\nIIII\n";
  for (int trial = 0; trial < 300; ++trial) {
    std::istringstream in(corrupt(valid, rng));
    try {
      const auto records = read_fastq(in);
      for (const auto& rec : records) {
        EXPECT_EQ(rec.sequence.size(), rec.quality.size());
      }
    } catch (const Error&) {
      // expected for malformed input
    }
  }
}

// Result of running a FASTQ parser to completion: the records it produced,
// or the exact error text it died with.
struct FastqParse {
  std::vector<FastqRecord> records;
  std::string error;
};

// The oracle: the getline FastqReader, driven directly (read_fastq itself
// runs the block parser).
FastqParse parse_getline(const std::string& text) {
  FastqParse out;
  std::istringstream in(text);
  FastqReader reader(in);
  try {
    while (auto rec = reader.next()) out.records.push_back(std::move(*rec));
  } catch (const Error& e) {
    out.error = e.what();
  }
  return out;
}

FastqParse parse_block(const std::string& text, usize block_bytes,
                       usize batch_reads) {
  FastqParse out;
  std::istringstream in(text);
  FastqBlockReader reader(in, block_bytes);
  ReadBatch batch;
  try {
    while (reader.read_batch(batch, batch_reads) > 0) {
      for (usize i = 0; i < batch.size(); ++i) {
        out.records.push_back({std::string(batch.name(i)),
                               std::string(batch.sequence(i)),
                               std::string(batch.quality(i))});
      }
      batch.clear();
    }
  } catch (const Error& e) {
    out.error = e.what();
  }
  return out;
}

// The block parser's contract: over ANY input, byte-identical behavior to
// FastqReader — the same record stream on success, the same ParseError
// text on failure. On the error path only the message is compared.
void expect_block_parity(const std::string& text, usize block_bytes,
                         usize batch_reads) {
  const FastqParse expected = parse_getline(text);
  const FastqParse got = parse_block(text, block_bytes, batch_reads);
  ASSERT_EQ(got.error, expected.error) << "input: " << ::testing::PrintToString(text);
  if (!expected.error.empty()) return;
  ASSERT_EQ(got.records.size(), expected.records.size());
  for (usize i = 0; i < got.records.size(); ++i) {
    ASSERT_EQ(got.records[i].name, expected.records[i].name) << "read " << i;
    ASSERT_EQ(got.records[i].sequence, expected.records[i].sequence)
        << "read " << i;
    ASSERT_EQ(got.records[i].quality, expected.records[i].quality)
        << "read " << i;
  }
}

TEST(Fuzz, BlockParserMatchesReaderOnCorruptedCorpus) {
  Rng rng(131);
  const std::string valid =
      "@r1\nACGT\n+\nIIII\n@r2 desc\nGGCC\n+r2\nIIII\n\n@r3\nTTAA\n+\n!!!!\n";
  for (int trial = 0; trial < 400; ++trial) {
    const std::string bad = corrupt(valid, rng);
    // Tiny blocks + small batches maximize refill/memmove crossings.
    expect_block_parity(bad, 1 + rng.uniform(48), 1 + rng.uniform(4));
  }
}

TEST(Fuzz, BlockParserMatchesReaderAtEveryTruncationOffset) {
  const std::string valid =
      "@r1\nACGT\n+\nIIII\n@r2 desc\nGGCC\n+r2\nIIII\n@r3\nTT\n+\nII\n";
  for (usize cut = 0; cut <= valid.size(); ++cut) {
    expect_block_parity(valid.substr(0, cut), 7, 2);
  }
}

TEST(Fuzz, BlockParserMatchesReaderOnLineEndingAndJunkVariants) {
  const std::string cases[] = {
      "@a\r\nACGT\r\n+\r\nIIII\r\n@b\r\nGG\r\n+\r\nII\r\n",  // CRLF
      "@a\nACGT\n+\nIIII\n\n\n\n@b\nGG\n+\nII\n",            // blank runs
      "@a\nACGT\n+anything goes here\nIIII\n",               // '+' garbage
      "@a\nACGT\n-not plus\nIIII\n",                         // bad '+' line
      "@a\nACGT\n+\nIIII",            // no trailing newline
      "@a\r\nACGT\r\n+\r\nIIII\r",    // CRLF, no trailing LF
      "\n\n\n",                       // blanks only
      "",                             // empty
      "@a\n\n+\n\n@b\nGG\n+\nII\n",   // empty sequence + quality
      "@a\nacgtn\n+\nIIIII\n",        // lowercase normalization
      "@a\nACRT\n+\nIIII\n",          // ambiguity code -> N
      "@a\nAC!T\n+\nIIII\n",          // invalid residue
      "@\nACGT\n+\nIIII\n",           // empty name
      "@a quality is +@\nAC\n+\n+@\n",  // quality starting with '+'
  };
  for (const auto& text : cases) {
    for (const usize block : {usize{1}, usize{4}, usize{64}, usize{1 << 16}}) {
      expect_block_parity(text, block, 3);
    }
  }
}

TEST(Fuzz, FastaParserNeverCrashes) {
  Rng rng(103);
  const std::string valid = ">chr1 toplevel\nACGTACGT\n>chr2\nTTTT\n";
  for (int trial = 0; trial < 300; ++trial) {
    std::istringstream in(corrupt(valid, rng));
    try {
      read_fasta(in);
    } catch (const Error&) {
    }
  }
}

TEST(Fuzz, GtfParserNeverCrashes) {
  Rng rng(107);
  const std::string valid =
      "1\te\tgene\t1\t100\t.\t+\t.\tgene_id \"G\";\n"
      "1\te\texon\t1\t50\t.\t+\t.\tgene_id \"G\";\n";
  for (int trial = 0; trial < 300; ++trial) {
    std::istringstream in(corrupt(valid, rng));
    try {
      read_gtf(in);
    } catch (const Error&) {
    }
  }
}

TEST(Fuzz, SraDecoderNeverCrashes) {
  const auto& w = world();
  const ReadSet reads = w.simulator->simulate(bulk_rna_profile(), 30, Rng(5));
  SraMetadata metadata;
  metadata.accession = "SRR1";
  metadata.num_reads = reads.size();
  for (const auto& read : reads.reads) {
    metadata.total_bases += read.sequence.size();
  }
  const auto container = sra_encode(metadata, reads.reads);
  const std::string base(container.begin(), container.end());

  Rng rng(109);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string bad = corrupt(base, rng);
    try {
      sra_decode(std::vector<u8>(bad.begin(), bad.end()));
    } catch (const Error&) {
    }
  }
}

TEST(Fuzz, IndexLoaderNeverCrashes) {
  const auto& w = world();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  w.index111.save(buffer);
  const std::string base = buffer.str();
  Rng rng(113);
  for (int trial = 0; trial < 60; ++trial) {
    std::istringstream in(corrupt(base, rng), std::ios::binary);
    try {
      GenomeIndex::load(in);
    } catch (const Error&) {
    }
  }
}

TEST(Fuzz, AlignerHandlesArbitraryReadBytes) {
  // Reads straight off a sequencer can contain anything our FASTQ layer
  // normalizes; the aligner itself must tolerate any ACGTN string and
  // lengths from 0 to far beyond genome scale.
  const auto& w = world();
  const Aligner aligner(w.index111, AlignerParams{});
  Rng rng(127);
  static const char kAlphabet[] = "ACGTN";
  for (int trial = 0; trial < 200; ++trial) {
    std::string read(rng.uniform(300), 'A');
    for (auto& c : read) c = kAlphabet[rng.uniform(5)];
    MappingStats work;
    const ReadAlignment result = aligner.align(read, work);
    if (result.outcome != ReadOutcome::kUnmapped &&
        result.outcome != ReadOutcome::kTooManyLoci) {
      ASSERT_FALSE(result.hits.empty());
      EXPECT_LE(result.hits.front().score, read.size());
    }
  }
}

}  // namespace
}  // namespace staratlas
