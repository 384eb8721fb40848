// IndexStorage: the backing memory of a GenomeIndex.
//
// Two modes. *Owned*: the index owns its containers — the build path and
// the v3 stream load fill these. *Mapped*: the big sections (text, suffix
// array, LUT, mini-LUTs) are std::span views into an mmap'd v3 index
// file, so "loading" is O(header) and the kernel pages sections in on
// first touch — the in-process analog of attaching to STAR's
// `--genomeLoad LoadAndKeep` shared-memory segment. Accessors derive the
// view per call from whichever mode is active, which keeps moved-from
// small-string/vector pitfalls out of the picture (mmap pointers and
// vector heap buffers are stable across moves).
#pragma once

#include <array>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace staratlas {

/// One prefix-LUT cell: [lo, hi) suffix-array rows.
using LutCell = std::array<u32, 2>;

/// RAII read-only file mapping. Move-only; unmaps on destruction.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. Throws IoError on open/map failure,
  /// ParseError on an empty file; `what` names the file in the message.
  static MappedFile map(const std::string& path,
                        const std::string& what = "index file");

  /// False when the platform has no mmap; callers fall back to streams.
  static bool supported();

  const u8* data() const { return data_; }
  usize size() const { return size_; }
  bool active() const { return data_ != nullptr; }

 private:
  u8* data_ = nullptr;
  usize size_ = 0;
};

struct IndexStorage {
  // Owned mode (build path and stream loads). Empty when mapped.
  std::string text_owned;
  std::vector<u32> sa_owned;
  std::vector<LutCell> lut_owned;
  std::array<std::vector<LutCell>, 4> mini_owned;

  // Mapped mode: the mapping plus borrowed section views into it.
  MappedFile file;
  std::string_view text_view;
  std::span<const u32> sa_view;
  std::span<const LutCell> lut_view;
  std::array<std::span<const LutCell>, 4> mini_view;
  bool mapped = false;

  std::string_view text() const {
    return mapped ? text_view : std::string_view(text_owned);
  }
  std::span<const u32> sa() const {
    return mapped ? sa_view : std::span<const u32>(sa_owned);
  }
  std::span<const LutCell> lut() const {
    return mapped ? lut_view : std::span<const LutCell>(lut_owned);
  }
  /// Cascade LUT for prefix length `k` in 1..4.
  std::span<const LutCell> mini(u32 k) const {
    return mapped ? mini_view[k - 1]
                  : std::span<const LutCell>(mini_owned[k - 1]);
  }
};

}  // namespace staratlas
