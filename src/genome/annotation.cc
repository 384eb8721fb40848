#include "genome/annotation.h"

#include <algorithm>
#include <map>

#include "common/error.h"

namespace staratlas {

u64 Gene::exonic_length() const {
  u64 total = 0;
  for (const auto& exon : exons) total += exon.length();
  return total;
}

std::string Gene::transcript_sequence(const Assembly& assembly) const {
  const std::string& seq = assembly.contig(contig).sequence;
  std::string transcript;
  transcript.reserve(exonic_length());
  for (const auto& exon : exons) {
    STARATLAS_CHECK(exon.end <= seq.size());
    transcript.append(seq, exon.start, exon.length());
  }
  return transcript;
}

Annotation::Annotation(std::vector<Gene> genes) : genes_(std::move(genes)) {
  for (auto& gene : genes_) {
    STARATLAS_CHECK(!gene.id.empty());
    STARATLAS_CHECK(!gene.exons.empty());
    std::sort(gene.exons.begin(), gene.exons.end(),
              [](const Exon& a, const Exon& b) { return a.start < b.start; });
    for (usize i = 0; i < gene.exons.size(); ++i) {
      STARATLAS_CHECK(gene.exons[i].start < gene.exons[i].end);
      if (i > 0) STARATLAS_CHECK(gene.exons[i - 1].end <= gene.exons[i].start);
    }
  }
}

const Gene& Annotation::gene(GeneId id) const {
  STARATLAS_CHECK(id < genes_.size());
  return genes_[id];
}

GeneId Annotation::find_gene(const std::string& gene_id) const {
  for (usize i = 0; i < genes_.size(); ++i) {
    if (genes_[i].id == gene_id) return static_cast<GeneId>(i);
  }
  return kNoGene;
}

std::vector<GeneId> Annotation::genes_on_contig(ContigId contig) const {
  std::vector<GeneId> ids;
  for (usize i = 0; i < genes_.size(); ++i) {
    if (genes_[i].contig == contig) ids.push_back(static_cast<GeneId>(i));
  }
  std::sort(ids.begin(), ids.end(), [this](GeneId a, GeneId b) {
    return genes_[a].start() < genes_[b].start();
  });
  return ids;
}

u64 Annotation::total_exonic_length() const {
  u64 total = 0;
  for (const auto& gene : genes_) total += gene.exonic_length();
  return total;
}

std::vector<GtfFeature> Annotation::to_gtf(const Assembly& assembly) const {
  std::vector<GtfFeature> features;
  for (const auto& gene : genes_) {
    const std::string& contig_name = assembly.contig(gene.contig).name;
    GtfFeature gene_row;
    gene_row.contig = contig_name;
    gene_row.type = FeatureType::kGene;
    gene_row.start = gene.start() + 1;
    gene_row.end = gene.end();
    gene_row.strand = gene.strand;
    gene_row.gene_id = gene.id;
    features.push_back(gene_row);

    GtfFeature tx_row = gene_row;
    tx_row.type = FeatureType::kTranscript;
    tx_row.transcript_id = gene.id + ".t1";
    features.push_back(tx_row);

    for (const auto& exon : gene.exons) {
      GtfFeature exon_row = tx_row;
      exon_row.type = FeatureType::kExon;
      exon_row.start = exon.start + 1;
      exon_row.end = exon.end;
      features.push_back(exon_row);
    }
  }
  return features;
}

Annotation Annotation::from_gtf(const std::vector<GtfFeature>& features,
                                const Assembly& assembly) {
  std::vector<std::string> contig_names;
  contig_names.reserve(assembly.num_contigs());
  for (const Contig& contig : assembly.contigs()) {
    contig_names.push_back(contig.name);
  }
  return from_gtf(features, contig_names);
}

Annotation Annotation::from_gtf(const std::vector<GtfFeature>& features,
                                const std::vector<std::string>& contig_names) {
  const auto contig_id = [&contig_names](const std::string& name) {
    const auto it = std::find(contig_names.begin(), contig_names.end(), name);
    if (it == contig_names.end()) {
      throw InvalidArgument("no contig named '" + name + "'");
    }
    return static_cast<ContigId>(it - contig_names.begin());
  };
  struct Builder {
    Gene gene;
    bool seen = false;
  };
  std::map<std::string, Builder> by_id;
  std::vector<std::string> order;
  for (const auto& f : features) {
    auto [it, inserted] = by_id.try_emplace(f.gene_id);
    if (inserted) order.push_back(f.gene_id);
    Builder& b = it->second;
    if (!b.seen) {
      b.gene.id = f.gene_id;
      b.gene.name = f.gene_id;
      b.gene.contig = contig_id(f.contig);
      b.gene.strand = f.strand;
      b.seen = true;
    }
    if (f.type == FeatureType::kExon) {
      STARATLAS_CHECK(f.start >= 1);
      b.gene.exons.push_back({f.start - 1, f.end});
    }
  }
  std::vector<Gene> genes;
  genes.reserve(order.size());
  for (const auto& id : order) {
    Builder& b = by_id[id];
    if (b.gene.exons.empty()) {
      throw ParseError("gene '" + id + "' has no exon features");
    }
    std::sort(b.gene.exons.begin(), b.gene.exons.end(),
              [](const Exon& a, const Exon& e) { return a.start < e.start; });
    genes.push_back(std::move(b.gene));
  }
  return Annotation(std::move(genes));
}

}  // namespace staratlas
