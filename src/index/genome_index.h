// GenomeIndex: the precomputed data structure the aligner loads into
// memory, mirroring STAR's genome index (suffix array + prefix lookup).
//
// The index concatenates all contigs with a '#' separator byte between
// them, so no suffix-array match can span a contig boundary, then builds a
// suffix array and a k-mer prefix lookup table that jump-starts Maximal
// Mappable Prefix searches. Construction is thread-pool parallel when
// IndexParams::num_threads > 1 (bit-identical to the sequential SA-IS
// reference path). On-disk format: v3 (page-aligned checksummed sections,
// mini-LUTs serialized, mmap-able for O(header) zero-copy loads via
// IndexStorage, or stream-loaded into owned memory). The genome text is
// one byte per base, as in STAR, in memory and on disk. Any other version
// is a ParseError.
#pragma once

#include <array>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "genome/model.h"
#include "index/index_storage.h"

namespace staratlas {

class BinaryReader;
class ThreadPool;

struct IndexParams {
  /// Prefix lookup k-mer length; 0 = auto (scales with genome size).
  u32 prefix_lut_k = 0;
  /// Build threads; 1 = the sequential SA-IS reference path, 0 = one per
  /// hardware thread, >1 = prefix-bucketed parallel build (bit-identical
  /// output, property-tested against the sequential path).
  usize num_threads = 1;
};

/// How load_file materializes a v3 index file.
enum class IndexLoadMode : u8 {
  kAuto = 0,  ///< kMmap where the platform has mmap, else kStream
  kStream,    ///< copy and checksum every section through BinaryReader
  kMmap,      ///< zero-copy O(header) attach; verify_checksums() on demand
};

/// Half-open range [lo, hi) of suffix-array rows.
struct SaInterval {
  u32 lo = 0;
  u32 hi = 0;
  u32 count() const { return hi - lo; }
  bool empty() const { return lo >= hi; }
};

/// Result of a Maximal Mappable Prefix search: the longest prefix of the
/// query occurring in the genome, and the SA rows of its occurrences.
struct MmpResult {
  usize length = 0;      ///< matched prefix length (0 = first char absent)
  SaInterval interval;   ///< occurrences of that prefix
};

/// Location of a text position within the assembly.
struct ContigLocus {
  ContigId contig = 0;
  u64 offset = 0;  ///< 0-based within the contig
};

struct ContigMeta {
  std::string name;
  ContigClass cls = ContigClass::kChromosome;
  u64 text_offset = 0;  ///< start within the concatenated text
  u64 length = 0;
};

struct IndexStats {
  ByteSize text_bytes;
  ByteSize suffix_array_bytes;
  ByteSize lut_bytes;
  ByteSize mini_lut_bytes;  ///< the four cascade LUTs (resident like the rest)
  ByteSize total() const {
    return text_bytes + suffix_array_bytes + lut_bytes + mini_lut_bytes;
  }
  u64 genome_length = 0;  ///< residues (without separators)
  usize num_contigs = 0;
  u32 prefix_lut_k = 0;
};

class GenomeIndex {
 public:
  static constexpr u32 kVersionV3 = 3;
  /// The one format save() writes and load() reads.
  static constexpr u32 kVersionLatest = kVersionV3;

  GenomeIndex() = default;

  /// Builds the index from an assembly. O(genome); parallel across
  /// IndexParams::num_threads.
  static GenomeIndex build(const Assembly& assembly,
                           const IndexParams& params = {});

  const std::string& species() const { return species_; }
  int release() const { return release_; }
  AssemblyType assembly_type() const { return type_; }

  const std::vector<ContigMeta>& contigs() const { return contigs_; }
  /// Concatenated text: contigs separated by '#', one byte per base.
  std::string_view text() const { return storage_.text(); }
  /// Copy of text().substr(pos, len).
  std::string text_substr(u64 pos, u64 len) const;
  std::span<const u32> suffix_array() const { return storage_.sa(); }
  std::span<const LutCell> prefix_lut() const { return storage_.lut(); }
  /// Cascade LUT for prefix length `k` in 1..4.
  std::span<const LutCell> mini_lut(u32 k) const { return storage_.mini(k); }
  u32 prefix_lut_k() const { return lut_k_; }
  /// True when the big sections are borrowed from an mmap'd file.
  bool memory_mapped() const { return storage_.mapped; }

  /// Suffix-array row -> genome text position.
  GenomePos sa_position(u32 row) const { return storage_.sa()[row]; }

  /// Maps a concatenated-text position to (contig, offset). Positions that
  /// land on a separator are invalid; callers never produce them because
  /// matches cannot span separators.
  ContigLocus locate(GenomePos text_pos) const;

  /// Longest prefix of `query` present in the genome, with occurrences.
  MmpResult mmp(std::string_view query) const;

  /// Hot-path form of mmp(): writes into a caller-provided result so the
  /// seed-walk loop reuses one MmpResult for every restart. Performs no
  /// heap allocation.
  void mmp(std::string_view query, MmpResult& out) const;

  /// Batched mmp(): resolves queries[i] into results[i] for every i, with
  /// results identical to per-query mmp() calls. Internally up to 64
  /// queries walk the suffix array in lockstep lanes. After the LUT jump,
  /// a lane whose interval holds more than 24 rows finds the MMP the way
  /// STAR does: one binary search for the query's insertion point, each
  /// probe comparing the rest of the query against the probed suffix
  /// from the prefix both search bounds already share, then a gallop and
  /// bisection outward for the rows that reach the maximal length. A
  /// smaller interval is compared row by row. Each step issues every
  /// lane's SA probe with a software prefetch before any lane consumes
  /// one, so the dependent DRAM loads that serialize a lone walk overlap
  /// across lanes instead. A lane is refilled the step after its query
  /// resolves, so no lane waits on slower ones. Performs no heap
  /// allocation. `queries.size()` must equal `results.size()`.
  void mmp_batch(std::span<const std::string_view> queries,
                 std::span<MmpResult> results) const;

  /// Pull interface for mmp_batch_stream(). The walker calls next() to
  /// claim a free lane's query and done() exactly once per issued query.
  /// Within one walker step every result is delivered through done()
  /// before any next() call of the following claim, so a caller whose
  /// next query depends on the previous result (the seed walk's restarts)
  /// can chain work without ever draining the lanes.
  class MmpFeed {
   public:
    virtual ~MmpFeed() = default;
    /// Supplies the next pending query and an opaque tag, or returns
    /// false when nothing is pending right now. After a false the walker
    /// asks again only once a later done() delivery may have created new
    /// pending work; it returns when no query is in flight and the feed
    /// is dry.
    virtual bool next(std::string_view& query, u32& tag) = 0;
    /// Delivers the result of the query issued under `tag`. Delivery
    /// order across tags follows lane completion, not issue order.
    virtual void done(u32 tag, const MmpResult& result) = 0;
  };

  /// Pull-driven mmp_batch: keeps up to 64 lockstep lanes full from
  /// `feed` until it runs dry with no query in flight. Each query's result
  /// is identical to a per-query mmp() call. Performs no heap allocation.
  /// Returns the suffix-array rows the walk read: one per binary-search
  /// probe plus every row of each row-by-row compare (the LUT jumps are
  /// not counted).
  u64 mmp_batch_stream(MmpFeed& feed) const;

  /// Narrows `interval` (matching `depth` query chars) to suffixes whose
  /// next character equals `c`. mmp()'s narrowing step, public so tests
  /// can check it on its own.
  SaInterval extend_interval(SaInterval interval, usize depth, char c) const;

  IndexStats stats() const;

  /// Stable identity hash (FNV-1a over species/release/type/LUT-k, contig
  /// metadata, and sampled text bytes). Equal for any two loads of the
  /// same index — stream, mmap, or another process — so cross-shard merge
  /// layers can verify two result collectors reference the same genome
  /// without comparing full text. O(contigs).
  u64 fingerprint() const;

  /// Serialization (binary, versioned). `version` must be kVersionV3:
  /// page-aligned, checksummed, mmap-able sections.
  void save(std::ostream& out, u32 version = kVersionLatest) const;
  void save_file(const std::string& path, u32 version = kVersionLatest) const;
  /// Stream load; accepts v3. Corruption (including truncation) and any
  /// other version surface as ParseError.
  static GenomeIndex load(std::istream& in);
  static GenomeIndex load_file(const std::string& path,
                               IndexLoadMode mode = IndexLoadMode::kAuto);

  /// Recomputes the per-section checksums of a memory-mapped index against
  /// the file's section table; throws ParseError on mismatch. O(file) —
  /// the mmap load path skips it by default to stay O(header), like
  /// attaching to an already-resident shm segment. No-op for owned
  /// indexes (their sections were verified or built in-process).
  void verify_checksums() const;

 private:
  struct SectionInfo {
    u32 id = 0;
    u64 offset = 0;
    u64 length = 0;
    u64 checksum = 0;
  };

  void build_lut();
  void build_mini_luts();
  void build_lut_parallel(ThreadPool& pool);
  void build_mini_luts_parallel(ThreadPool& pool);
  /// Structural validation shared by every load path; `deep` additionally
  /// scans SA entries and LUT cells for out-of-range values (the stream
  /// load, which has copied every byte anyway).
  void validate_loaded(bool deep) const;
  std::string serialize_meta() const;
  void parse_meta(const std::string& blob, u64& text_size, u64& sa_size,
                  u64& lut_cells);
  static GenomeIndex load_sectioned_stream(BinaryReader& reader);
  static GenomeIndex load_sectioned_mmap(MappedFile file,
                                         const std::string& path);

  std::string species_;
  int release_ = 0;
  AssemblyType type_ = AssemblyType::kToplevel;
  std::vector<ContigMeta> contigs_;
  u32 lut_k_ = 0;
  /// Backing memory: owned containers or mmap'd section views. The main
  /// LUT is interleaved ([lo, hi] per k-mer code) so a lookup touches one
  /// cache line — MMP calls are the aligner's hottest operation and each
  /// one starts with this load. v3 files store the cells interleaved too.
  /// Cascade mini-LUTs cover prefix lengths 1..4 (4^k cells each): when
  /// the main LUT cannot jump — query shorter than k, leading k-mer
  /// absent, or an early N — these pin the walk to a short-prefix SA block
  /// instead of binary-searching down from the full range. 340 cells
  /// total, so they stay cache-resident.
  IndexStorage storage_;
  /// v3 mmap only: the file's section table, for verify_checksums().
  std::vector<SectionInfo> sections_;
};

}  // namespace staratlas
