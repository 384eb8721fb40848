// 2-bit packed nucleotide storage with an N-position overlay.
//
// Used by the SRA container codec and by the index footprint accounting
// (STAR's real index stores the genome 1 byte/base; packed form models the
// compressed on-disk/in-object-store representation).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/units.h"

namespace staratlas {

class PackedSequence {
 public:
  PackedSequence() = default;

  /// Packs an ACGTN string. Throws InvalidArgument on other characters.
  static PackedSequence pack(std::string_view seq);

  /// Unpacks back to an ACGTN string.
  std::string unpack() const;

  /// Hot-path form: unpacks into `out` (resized, capacity reused), so the
  /// streaming SRA decoder's per-record unpack is allocation-free once
  /// warm.
  void unpack_into(std::string& out) const;

  u64 size() const { return length_; }
  bool empty() const { return length_ == 0; }

  /// Residue at position i (ACGT or N). Random access: pays a binary
  /// search over the N overlay per call — for sequential walks use a
  /// Cursor, which merges the overlay in O(1) amortized per base.
  char at(u64 i) const;

  /// Sequential accessor. The old decoder loops called at() per base,
  /// which re-ran the overlay binary search length times; the cursor
  /// positions itself in the sorted overlay once and then just compares
  /// the front entry as it advances.
  class Cursor {
   public:
    explicit Cursor(const PackedSequence& seq, u64 start = 0);
    bool done() const { return pos_ >= seq_->length_; }
    u64 position() const { return pos_; }
    /// Residue at position(), then advances. Checks !done().
    char next();

   private:
    const PackedSequence* seq_;
    u64 pos_;
    usize n_idx_;  ///< first overlay entry >= pos_
  };
  Cursor cursor(u64 start = 0) const { return Cursor(*this, start); }

  /// Single-pass decode over raw codec fields, overlay merged on the fly
  /// — shared by unpack_into and the SRA container's record decoder.
  /// Caller is responsible for validating the field shapes first.
  static void unpack_raw(u64 length, const u8* codes, const u64* n_positions,
                         usize num_n, std::string& out);

  /// Bytes used by the packed representation (codes + N overlay).
  ByteSize packed_bytes() const;

  /// Raw access for serialization.
  const std::vector<u8>& codes() const { return codes_; }
  const std::vector<u64>& n_positions() const { return n_positions_; }
  static PackedSequence from_raw(u64 length, std::vector<u8> codes,
                                 std::vector<u64> n_positions);

 private:
  u64 length_ = 0;
  std::vector<u8> codes_;         ///< 4 bases per byte
  std::vector<u64> n_positions_;  ///< sorted positions stored as 'A' in codes_
};

namespace detail {
inline constexpr std::array<u8, 256> kBaseCodes = [] {
  std::array<u8, 256> table{};
  table.fill(0xff);
  table['A'] = 0;
  table['C'] = 1;
  table['G'] = 2;
  table['T'] = 3;
  return table;
}();
}  // namespace detail

/// 2-bit code for A/C/G/T (0..3); 0xff for anything else. Inline: the MMP
/// prefix-LUT lookup calls this per leading base of every seed walk.
inline u8 base_code(char base) {
  return detail::kBaseCodes[static_cast<u8>(base)];
}
/// Inverse of base_code for 0..3.
char code_base(u8 code);
/// Reverse complement of an ACGTN string (N maps to N).
std::string reverse_complement(std::string_view seq);
/// Hot-path form: writes into `out` (resized, capacity reused), so a
/// per-thread buffer makes repeated calls allocation-free.
void reverse_complement(std::string_view seq, std::string& out);
/// Writes seq.size() bytes at `out` (a slot in a caller's buffer).
void reverse_complement(std::string_view seq, char* out);

}  // namespace staratlas
