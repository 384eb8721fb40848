#include "genome/model.h"

#include "common/error.h"

namespace staratlas {

const char* contig_class_name(ContigClass cls) {
  switch (cls) {
    case ContigClass::kChromosome: return "chromosome";
    case ContigClass::kUnlocalizedScaffold: return "unlocalized";
    case ContigClass::kUnplacedScaffold: return "unplaced";
  }
  return "?";
}

const char* assembly_type_name(AssemblyType type) {
  switch (type) {
    case AssemblyType::kToplevel: return "toplevel";
    case AssemblyType::kPrimaryAssembly: return "primary_assembly";
  }
  return "?";
}

Assembly::Assembly(std::string species, int release, AssemblyType type,
                   std::vector<Contig> contigs)
    : species_(std::move(species)),
      release_(release),
      type_(type),
      contigs_(std::move(contigs)) {
  for (const auto& c : contigs_) {
    STARATLAS_CHECK(!c.name.empty());
    STARATLAS_CHECK(!c.sequence.empty());
  }
}

const Contig& Assembly::contig(ContigId id) const {
  STARATLAS_CHECK(id < contigs_.size());
  return contigs_[id];
}

const Contig* Assembly::find_contig(const std::string& name) const {
  for (const auto& c : contigs_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

u64 Assembly::total_length() const {
  u64 total = 0;
  for (const auto& c : contigs_) total += c.length();
  return total;
}

u64 Assembly::length_of(ContigClass cls) const {
  u64 total = 0;
  for (const auto& c : contigs_) {
    if (c.cls == cls) total += c.length();
  }
  return total;
}

usize Assembly::count_of(ContigClass cls) const {
  usize n = 0;
  for (const auto& c : contigs_) n += (c.cls == cls) ? 1 : 0;
  return n;
}

ByteSize Assembly::fasta_size() const {
  constexpr u64 kWrap = 60;
  u64 bytes = 0;
  for (const auto& c : contigs_) {
    // ">name class\n" header.
    bytes += 1 + c.name.size() + 1 +
             std::string(contig_class_name(c.cls)).size() + 1;
    const u64 len = c.length();
    bytes += len + (len + kWrap - 1) / kWrap;  // residues + newlines
  }
  return ByteSize(bytes);
}

Assembly Assembly::primary_assembly() const {
  std::vector<Contig> kept;
  for (const auto& c : contigs_) {
    if (c.cls == ContigClass::kChromosome) kept.push_back(c);
  }
  return Assembly(species_, release_, AssemblyType::kPrimaryAssembly,
                  std::move(kept));
}

std::vector<FastaRecord> Assembly::to_fasta() const {
  std::vector<FastaRecord> records;
  records.reserve(contigs_.size());
  for (const auto& c : contigs_) {
    records.push_back({c.name, contig_class_name(c.cls), c.sequence});
  }
  return records;
}

Assembly Assembly::from_fasta(std::string species, int release,
                              AssemblyType type,
                              const std::vector<FastaRecord>& records) {
  std::vector<Contig> contigs;
  contigs.reserve(records.size());
  for (const auto& rec : records) {
    Contig c;
    c.name = rec.name;
    c.sequence = rec.sequence;
    if (rec.description == "unlocalized") {
      c.cls = ContigClass::kUnlocalizedScaffold;
    } else if (rec.description == "unplaced") {
      c.cls = ContigClass::kUnplacedScaffold;
    } else {
      c.cls = ContigClass::kChromosome;
    }
    contigs.push_back(std::move(c));
  }
  return Assembly(std::move(species), release, type, std::move(contigs));
}

}  // namespace staratlas
