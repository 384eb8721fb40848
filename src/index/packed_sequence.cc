#include "index/packed_sequence.h"

#include <algorithm>
#include <array>

#include "common/error.h"

namespace staratlas {

char code_base(u8 code) {
  static constexpr char kBases[] = "ACGT";
  STARATLAS_CHECK(code < 4);
  return kBases[code];
}

std::string reverse_complement(std::string_view seq) {
  std::string out;
  reverse_complement(seq, out);
  return out;
}

void reverse_complement(std::string_view seq, std::string& out) {
  out.resize(seq.size());
  reverse_complement(seq, out.data());
}

void reverse_complement(std::string_view seq, char* out) {
  // Table-driven complement (zero byte = invalid residue): one load per
  // base instead of a branch ladder, which matters because the aligner
  // reverse-complements every read.
  static constexpr std::array<char, 256> kComplement = [] {
    std::array<char, 256> table{};
    table['A'] = 'T';
    table['C'] = 'G';
    table['G'] = 'C';
    table['T'] = 'A';
    table['N'] = 'N';
    return table;
  }();
  for (usize i = 0; i < seq.size(); ++i) {
    const char c = kComplement[static_cast<u8>(seq[seq.size() - 1 - i])];
    if (c == 0) throw InvalidArgument("reverse_complement: invalid residue");
    out[i] = c;
  }
}

PackedSequence PackedSequence::pack(std::string_view seq) {
  PackedSequence packed;
  packed.length_ = seq.size();
  packed.codes_.assign((seq.size() + 3) / 4, 0);
  for (usize i = 0; i < seq.size(); ++i) {
    u8 code = base_code(seq[i]);
    if (code == 0xff) {
      if (seq[i] != 'N') {
        throw InvalidArgument(std::string("cannot pack residue '") + seq[i] + "'");
      }
      packed.n_positions_.push_back(i);
      code = 0;  // store N as A; overlay restores it
    }
    packed.codes_[i / 4] |= static_cast<u8>(code << ((i % 4) * 2));
  }
  return packed;
}

std::string PackedSequence::unpack() const {
  std::string seq;
  unpack_into(seq);
  return seq;
}

void PackedSequence::unpack_into(std::string& out) const {
  unpack_raw(length_, codes_.data(), n_positions_.data(), n_positions_.size(),
             out);
}

void PackedSequence::unpack_raw(u64 length, const u8* codes,
                                const u64* n_positions, usize num_n,
                                std::string& out) {
  // Single pass with the sorted overlay merged in as it goes. The old
  // decode patched N's in a second pass over the finished string, which
  // re-touched a cold cache line per overlay entry; per-base at() calls
  // were worse still (a binary search per residue).
  static constexpr char kBases[] = "ACGT";
  out.resize(length);
  usize n_idx = 0;
  for (u64 i = 0; i < length; ++i) {
    if (n_idx < num_n && n_positions[n_idx] == i) {
      out[i] = 'N';
      ++n_idx;
      continue;
    }
    out[i] = kBases[(codes[i >> 2] >> ((i & 3) * 2)) & 0x3];
  }
}

char PackedSequence::at(u64 i) const {
  STARATLAS_CHECK(i < length_);
  if (std::binary_search(n_positions_.begin(), n_positions_.end(), i)) {
    return 'N';
  }
  const u8 byte = codes_[i / 4];
  return code_base((byte >> ((i % 4) * 2)) & 0x3);
}

PackedSequence::Cursor::Cursor(const PackedSequence& seq, u64 start)
    : seq_(&seq), pos_(start) {
  n_idx_ = static_cast<usize>(
      std::lower_bound(seq.n_positions_.begin(), seq.n_positions_.end(),
                       start) -
      seq.n_positions_.begin());
}

char PackedSequence::Cursor::next() {
  STARATLAS_CHECK(pos_ < seq_->length_);
  const u64 i = pos_++;
  if (n_idx_ < seq_->n_positions_.size() &&
      seq_->n_positions_[n_idx_] == i) {
    ++n_idx_;
    return 'N';
  }
  static constexpr char kBases[] = "ACGT";
  return kBases[(seq_->codes_[i >> 2] >> ((i & 3) * 2)) & 0x3];
}

ByteSize PackedSequence::packed_bytes() const {
  return ByteSize(codes_.size() + n_positions_.size() * sizeof(u64) +
                  sizeof(u64));
}

PackedSequence PackedSequence::from_raw(u64 length, std::vector<u8> codes,
                                        std::vector<u64> n_positions) {
  STARATLAS_CHECK(codes.size() == (length + 3) / 4);
  STARATLAS_CHECK(std::is_sorted(n_positions.begin(), n_positions.end()));
  // A corrupt overlay must not drive unpack() out of bounds.
  STARATLAS_CHECK(n_positions.empty() || n_positions.back() < length);
  PackedSequence packed;
  packed.length_ = length;
  packed.codes_ = std::move(codes);
  packed.n_positions_ = std::move(n_positions);
  return packed;
}

}  // namespace staratlas
