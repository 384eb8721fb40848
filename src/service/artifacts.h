// Rendering a completed sample to the CLI align path's artifact text —
// the byte-identity surface of the service: Log.final (wall pinned to 0
// so the text is timing-independent), ReadsPerGene TSV when gene counts
// were produced, and the SJ TSV. The RPC server ships this string as the
// SUBMIT response body; tests string-compare it against the same
// rendering of an AlignmentEngine::execute over the same reads.
#pragma once

#include <string>

#include "genome/annotation.h"
#include "index/genome_index.h"
#include "service/types.h"

namespace staratlas {

/// `annotation` may be null (or counts absent) — the counts section is
/// skipped then. Junctions render whenever the result carries any.
std::string render_sample_artifacts(const SampleResult& result,
                                    const GenomeIndex& index,
                                    const Annotation* annotation);

}  // namespace staratlas
