// The genome text has one encoding, one byte per base. This function
// exists only for perfbench's environment stamp, which still records a
// "packed_lcp" field. The one text compare left, suffix_lcp's u64 word
// compare (genome_index.cc; mmp()'s single-candidate scan and the batch
// walker), is scalar. The function goes together with that stamp field
// in the next benchmark change.
#pragma once

#include "common/simd.h"

namespace staratlas {

inline SimdLevel packed_lcp_active_level() { return SimdLevel::kScalar; }

}  // namespace staratlas
