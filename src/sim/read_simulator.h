// Read simulator: samples FASTQ reads from a genome according to a
// LibraryProfile. Reads are always drawn from the CHROMOSOMES (identical
// across releases), so the same simulated sample can be aligned against
// any release of the assembly — exactly the paper's Fig 3 setup.
#pragma once

#include "common/rng.h"
#include "genome/annotation.h"
#include "genome/model.h"
#include "genome/synthesizer.h"
#include "io/fastq.h"
#include "sim/library_profile.h"

namespace staratlas {

class ReadSimulator {
 public:
  /// `assembly` supplies the chromosomes (any release works — chromosomes
  /// are shared); `annotation` the genes; `repeats` the satellite arrays.
  ReadSimulator(const Assembly& assembly, const Annotation& annotation,
                std::vector<RepeatRegion> repeats);

  /// Simulates `num_reads` reads. Deterministic in `rng`.
  ReadSet simulate(const LibraryProfile& profile, usize num_reads,
                   Rng rng) const;

 private:
  FastqRecord make_exonic(const LibraryProfile& profile, Rng& rng,
                          const std::vector<double>& expression,
                          u64 ordinal) const;
  FastqRecord make_genomic(const LibraryProfile& profile, Rng& rng,
                           u64 ordinal, bool intronic) const;
  FastqRecord make_repeat(const LibraryProfile& profile, Rng& rng,
                          u64 ordinal) const;
  FastqRecord make_junk(const LibraryProfile& profile, Rng& rng,
                        u64 ordinal) const;
  void apply_errors(std::string& seq, double error_rate, Rng& rng) const;
  std::string quality_string(u64 length, Rng& rng) const;

  const Assembly* assembly_;
  const Annotation* annotation_;
  std::vector<RepeatRegion> repeats_;
  std::vector<GeneId> usable_genes_;  ///< exonic length >= read length + margin
};

}  // namespace staratlas
