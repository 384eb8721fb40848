// Corruption robustness: a damaged index file must always surface as a
// clean ParseError from load — never a crash, hang, OOM, or a quietly
// wrong index that fails later inside locate()/mmp(). These tests run in
// the sanitized job too, where any out-of-bounds read aborts loudly.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "index/genome_index.h"
#include "io/binary.h"
#include "testutil.h"

namespace staratlas {
namespace {

using staratlas::testing::TempBytesFile;

Assembly small_assembly() {
  std::vector<Contig> contigs = {
      {"A", ContigClass::kChromosome,
       "ACGTACGTACGTANATTTCCCGGGACGTACGTACGTANGGCCTTACGT"},
      {"B", ContigClass::kUnlocalizedScaffold, "TTTTGGGGCCCCAAAATTTTGGGG"},
  };
  return Assembly("t", 111, AssemblyType::kToplevel, std::move(contigs));
}

std::string serialized(const GenomeIndex& index, u32 version) {
  std::ostringstream out(std::ios::out | std::ios::binary);
  index.save(out, version);
  return out.str();
}

// Loading `bytes` must either succeed (a flip can hit section padding or
// a reserved header field, which no checksum covers) or throw ParseError.
// Anything else — a crash, or IoError escaping — fails.
void expect_clean_load(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::in | std::ios::binary);
  try {
    const GenomeIndex loaded = GenomeIndex::load(in);
    // If it loaded, it must be internally consistent enough to search.
    (void)loaded.mmp("ACGTACGT");
  } catch (const ParseError&) {
    // expected for most corruptions
  }
}

class IndexCorruption : public ::testing::TestWithParam<u32> {};

TEST_P(IndexCorruption, SingleByteFlipsNeverCrash) {
  const GenomeIndex index = GenomeIndex::build(small_assembly());
  const std::string good = serialized(index, GetParam());
  Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    std::string bad = good;
    const usize pos = rng.uniform(bad.size());
    bad[pos] = static_cast<char>(bad[pos] ^ (1 + rng.uniform(255)));
    expect_clean_load(bad);
  }
}

TEST_P(IndexCorruption, TruncationAlwaysParseError) {
  const GenomeIndex index = GenomeIndex::build(small_assembly());
  const std::string good = serialized(index, GetParam());
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 100; ++trial) {
    const usize cut = rng.uniform(good.size());
    std::istringstream in(good.substr(0, cut),
                          std::ios::in | std::ios::binary);
    EXPECT_THROW(GenomeIndex::load(in), ParseError) << "cut at " << cut;
  }
}

TEST_P(IndexCorruption, MultiByteGarbageNeverCrashes) {
  const GenomeIndex index = GenomeIndex::build(small_assembly());
  const std::string good = serialized(index, GetParam());
  Rng rng(GetParam() + 2);
  for (int trial = 0; trial < 100; ++trial) {
    std::string bad = good;
    const usize start = rng.uniform(bad.size());
    const usize len = std::min<usize>(1 + rng.uniform(64), bad.size() - start);
    for (usize i = 0; i < len; ++i) {
      bad[start + i] = static_cast<char>(rng.uniform(256));
    }
    expect_clean_load(bad);
  }
}

INSTANTIATE_TEST_SUITE_P(Versions, IndexCorruption,
                         ::testing::Values(GenomeIndex::kVersionV3),
                         [](const auto& info) {
                           return "v" + std::to_string(info.param);
                         });

u64 u64_at(const std::string& bytes, usize pos) {
  u64 value = 0;
  std::memcpy(&value, bytes.data() + pos, sizeof(value));
  return value;
}

void put_u64(std::string& bytes, usize pos, u64 value) {
  std::memcpy(bytes.data() + pos, &value, sizeof(value));
}

// Targeted contig-metadata corruption: these fields used to pass load
// unchecked and blow up later inside locate(). Each patch also rewrites
// the meta section's checksum, so it is the contig-chain validator — run
// by the stream load and the mmap attach alike — that must reject it.
TEST(IndexCorruption, BadContigMetadataRejectedAtLoad) {
  const GenomeIndex index = GenomeIndex::build(small_assembly());
  const std::string good = serialized(index, GenomeIndex::kVersionV3);
  // v3 header: magic u32, version u32, section count u64, then 32-byte
  // section entries (id u32, reserved u32, offset u64, length u64,
  // fnv1a64 u64). Entry 0 is the meta section.
  const u64 meta_offset = u64_at(good, 16 + 8);
  const u64 meta_length = u64_at(good, 16 + 16);
  const usize meta_checksum_pos = 16 + 24;
  // Meta section: species (len u64 + "t"), release u32, type u8, LUT k
  // u32, text/SA/LUT sizes (3 x u64), num_contigs u64, then contig 0:
  // name (len u64 + "A"), cls u8, text_offset u64, length u64.
  const usize contig0_offset_pos = meta_offset + (8 + 1) + 4 + 1 + 4 +
                                   3 * 8 + 8 + (8 + 1) + 1;
  const usize contig0_length_pos = contig0_offset_pos + 8;
  ASSERT_EQ(u64_at(good, contig0_offset_pos), 0u);
  ASSERT_EQ(u64_at(good, contig0_length_pos),
            small_assembly().contig(0).length());

  auto with_u64_at = [&](usize pos, u64 value) {
    std::string bad = good;
    put_u64(bad, pos, value);
    put_u64(bad, meta_checksum_pos,
            fnv1a64(bad.data() + meta_offset, meta_length));
    return bad;
  };
  const std::string bad_files[] = {
      // Offset chain broken: first contig no longer starts at 0.
      with_u64_at(contig0_offset_pos, 7),
      // Length overruns the text.
      with_u64_at(contig0_length_pos, 1'000'000),
      // Overlapping/duplicated extent: contig 0 claims the whole text,
      // which breaks the dense-chain invariant against contig 1's offset.
      with_u64_at(contig0_length_pos, 72),
  };

  for (const IndexLoadMode mode : {IndexLoadMode::kStream,
                                   IndexLoadMode::kMmap}) {
    if (mode == IndexLoadMode::kMmap && !MappedFile::supported()) continue;
    SCOPED_TRACE(mode == IndexLoadMode::kMmap ? "mmap" : "stream");
    for (const std::string& bad : bad_files) {
      const TempBytesFile file(bad);
      try {
        (void)GenomeIndex::load_file(file.path, mode);
        ADD_FAILURE() << "corrupt contig metadata loaded";
      } catch (const ParseError& e) {
        // The validator, not a checksum, caught it.
        EXPECT_NE(std::string(e.what()).find("contig"), std::string::npos)
            << e.what();
      }
    }
    // Unchanged bytes still load fine (guards the offsets above).
    const TempBytesFile file(good);
    EXPECT_NO_THROW((void)GenomeIndex::load_file(file.path, mode));
  }
}

}  // namespace
}  // namespace staratlas
