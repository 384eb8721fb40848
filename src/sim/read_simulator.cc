#include "sim/read_simulator.h"

#include <cstdio>

#include "common/error.h"
#include "index/packed_sequence.h"

namespace staratlas {

namespace {
constexpr u64 kMinTranscriptMargin = 20;

std::string read_name(const char* origin, u64 ordinal) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "read.%llu.%s",
                static_cast<unsigned long long>(ordinal), origin);
  return buf;
}
}  // namespace

ReadSimulator::ReadSimulator(const Assembly& assembly,
                             const Annotation& annotation,
                             std::vector<RepeatRegion> repeats)
    : assembly_(&assembly),
      annotation_(&annotation),
      repeats_(std::move(repeats)) {
  STARATLAS_CHECK(assembly.count_of(ContigClass::kChromosome) > 0);
  for (usize g = 0; g < annotation.num_genes(); ++g) {
    const Gene& gene = annotation.gene(static_cast<GeneId>(g));
    STARATLAS_CHECK(gene.contig < assembly.num_contigs());
    if (gene.exonic_length() >= 100 + kMinTranscriptMargin) {
      usable_genes_.push_back(static_cast<GeneId>(g));
    }
  }
}

void ReadSimulator::apply_errors(std::string& seq, double error_rate,
                                 Rng& rng) const {
  static const char kBases[] = "ACGT";
  for (char& c : seq) {
    if (rng.chance(error_rate)) {
      char replacement = kBases[rng.uniform(4)];
      while (replacement == c) replacement = kBases[rng.uniform(4)];
      c = replacement;
    }
  }
}

std::string ReadSimulator::quality_string(u64 length, Rng& rng) const {
  // Mostly high quality with occasional dips — enough structure that the
  // RLE codec in the SRA container has something real to compress.
  std::string quality(length, 'I');
  for (auto& q : quality) {
    if (rng.chance(0.02)) q = static_cast<char>('#' + rng.uniform(20));
  }
  return quality;
}

FastqRecord ReadSimulator::make_exonic(const LibraryProfile& profile, Rng& rng,
                                       const std::vector<double>& expression,
                                       u64 ordinal) const {
  STARATLAS_CHECK(!usable_genes_.empty());
  const GeneId gene_id =
      usable_genes_[rng.weighted_index(expression)];
  const Gene& gene = annotation_->gene(gene_id);
  const std::string transcript = gene.transcript_sequence(*assembly_);
  STARATLAS_CHECK(transcript.size() >= profile.read_length);
  const u64 pos = rng.uniform(transcript.size() - profile.read_length + 1);
  std::string seq = transcript.substr(pos, profile.read_length);
  if (gene.strand == '-') seq = reverse_complement(seq);
  apply_errors(seq, profile.error_rate, rng);
  FastqRecord rec;
  rec.name = read_name("exon", ordinal);
  rec.quality = quality_string(seq.size(), rng);
  rec.sequence = std::move(seq);
  return rec;
}

FastqRecord ReadSimulator::make_genomic(const LibraryProfile& profile,
                                        Rng& rng, u64 ordinal,
                                        bool intronic) const {
  // Intronic: a position inside a random gene span. Intergenic: anywhere
  // on a chromosome.
  const auto& contigs = assembly_->contigs();
  u64 pos = 0;
  ContigId contig = 0;
  if (intronic && !usable_genes_.empty()) {
    const Gene& gene =
        annotation_->gene(usable_genes_[rng.uniform(usable_genes_.size())]);
    contig = gene.contig;
    const u64 span = gene.span();
    if (span > profile.read_length) {
      pos = gene.start() + rng.uniform(span - profile.read_length);
    } else {
      pos = gene.start();
    }
  } else {
    // Uniform over chromosomes by length.
    std::vector<double> weights;
    for (const auto& c : contigs) {
      weights.push_back(c.cls == ContigClass::kChromosome
                            ? static_cast<double>(c.length())
                            : 0.0);
    }
    contig = static_cast<ContigId>(rng.weighted_index(weights));
    pos = rng.uniform(contigs[contig].length() - profile.read_length);
  }
  std::string seq =
      contigs[contig].sequence.substr(pos, profile.read_length);
  if (rng.chance(0.5)) seq = reverse_complement(seq);
  apply_errors(seq, profile.error_rate, rng);
  FastqRecord rec;
  rec.name = read_name(intronic ? "intron" : "intergenic", ordinal);
  rec.quality = quality_string(seq.size(), rng);
  rec.sequence = std::move(seq);
  return rec;
}

FastqRecord ReadSimulator::make_repeat(const LibraryProfile& profile, Rng& rng,
                                       u64 ordinal) const {
  STARATLAS_CHECK(!repeats_.empty());
  const RepeatRegion& region = repeats_[rng.uniform(repeats_.size())];
  const u64 region_len = region.end - region.start;
  STARATLAS_CHECK(region_len > profile.read_length);
  const u64 pos = region.start + rng.uniform(region_len - profile.read_length);
  std::string seq = assembly_->contig(region.contig)
                        .sequence.substr(pos, profile.read_length);
  if (rng.chance(0.5)) seq = reverse_complement(seq);
  apply_errors(seq, profile.error_rate, rng);
  FastqRecord rec;
  rec.name = read_name("repeat", ordinal);
  rec.quality = quality_string(seq.size(), rng);
  rec.sequence = std::move(seq);
  return rec;
}

FastqRecord ReadSimulator::make_junk(const LibraryProfile& profile, Rng& rng,
                                     u64 ordinal) const {
  // Junk reads model what dominates a 3'-tag single-cell library aligned
  // like bulk data: poly-A tails, adapter concatemers, and foreign
  // (ambient/microbial) sequence. None of it aligns to the genome.
  static const char kBases[] = "ACGT";
  std::string seq(profile.read_length, 'A');
  const double draw = rng.uniform01();
  if (draw < 0.35) {
    // Poly-A with sporadic miscalls.
    for (auto& c : seq) {
      if (rng.chance(0.05)) c = kBases[rng.uniform(4)];
    }
  } else if (draw < 0.55) {
    // Adapter concatemer: a short motif tiled across the read.
    Rng motif_rng = rng.fork("adapter");
    std::string adapter(34, 'A');
    for (auto& c : adapter) c = kBases[motif_rng.uniform(4)];
    for (usize i = 0; i < seq.size(); ++i) {
      seq[i] = adapter[i % adapter.size()];
    }
    // A couple of point changes so concatemers are not all identical.
    for (auto& c : seq) {
      if (rng.chance(0.02)) c = kBases[rng.uniform(4)];
    }
  } else {
    // Foreign random sequence.
    for (auto& c : seq) c = kBases[rng.uniform(4)];
  }
  FastqRecord rec;
  rec.name = read_name("junk", ordinal);
  rec.quality = quality_string(seq.size(), rng);
  rec.sequence = std::move(seq);
  return rec;
}

ReadSet ReadSimulator::simulate(const LibraryProfile& profile, usize num_reads,
                                Rng rng) const {
  profile.validate();
  STARATLAS_CHECK(!usable_genes_.empty());

  // Per-sample expression levels (lognormal skew over usable genes).
  Rng expr_rng = rng.fork("expression");
  std::vector<double> expression(usable_genes_.size());
  for (auto& level : expression) {
    level = expr_rng.lognormal_median(1.0, profile.expression_ln_sigma);
  }

  std::vector<FastqRecord> reads;
  reads.reserve(num_reads);
  const std::vector<double> mixture = {
      profile.exonic_fraction, profile.intronic_fraction,
      profile.intergenic_fraction, profile.repeat_fraction,
      profile.junk_fraction};
  for (usize r = 0; r < num_reads; ++r) {
    switch (rng.weighted_index(mixture)) {
      case 0: reads.push_back(make_exonic(profile, rng, expression, r)); break;
      case 1: reads.push_back(make_genomic(profile, rng, r, /*intronic=*/true)); break;
      case 2: reads.push_back(make_genomic(profile, rng, r, /*intronic=*/false)); break;
      case 3: reads.push_back(make_repeat(profile, rng, r)); break;
      default: reads.push_back(make_junk(profile, rng, r)); break;
    }
  }
  return make_read_set(std::move(reads));
}

}  // namespace staratlas
