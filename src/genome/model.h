// Genome assembly model.
//
// Mirrors the Ensembl distinction the paper's Optimization A hinges on:
// a "toplevel" assembly contains chromosomes *plus* unlocalized/unplaced
// scaffolds, while "primary_assembly" omits the scaffolds. Between release
// 108-style and 111-style assemblies the scaffolds shrink dramatically
// because most were placed onto chromosomes.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "io/fasta.h"

namespace staratlas {

enum class ContigClass {
  kChromosome,
  kUnlocalizedScaffold,  ///< known chromosome, unknown position
  kUnplacedScaffold,     ///< unknown chromosome
};

const char* contig_class_name(ContigClass cls);

struct Contig {
  std::string name;
  ContigClass cls = ContigClass::kChromosome;
  std::string sequence;  ///< uppercase ACGTN

  u64 length() const { return sequence.size(); }
};

/// Which sequence set an assembly file contains.
enum class AssemblyType { kToplevel, kPrimaryAssembly };

const char* assembly_type_name(AssemblyType type);

class Assembly {
 public:
  Assembly() = default;
  Assembly(std::string species, int release, AssemblyType type,
           std::vector<Contig> contigs);

  const std::string& species() const { return species_; }
  int release() const { return release_; }
  AssemblyType type() const { return type_; }

  const std::vector<Contig>& contigs() const { return contigs_; }
  const Contig& contig(ContigId id) const;
  usize num_contigs() const { return contigs_.size(); }

  /// Finds a contig by name; returns nullptr if absent.
  const Contig* find_contig(const std::string& name) const;

  /// Total residues across all contigs.
  u64 total_length() const;
  /// Total residues in contigs of one class.
  u64 length_of(ContigClass cls) const;
  /// Number of contigs of one class.
  usize count_of(ContigClass cls) const;

  /// FASTA size of this assembly (headers + wrapped sequence lines).
  ByteSize fasta_size() const;

  /// Drops scaffolds, keeping chromosomes only (the "primary_assembly").
  Assembly primary_assembly() const;

  /// Serializes to FASTA records; the contig class is encoded in the
  /// description field so round-trips preserve it.
  std::vector<FastaRecord> to_fasta() const;

  /// Rebuilds an assembly from FASTA records produced by to_fasta(); contig
  /// classes are recovered from the description (defaulting to chromosome).
  static Assembly from_fasta(std::string species, int release, AssemblyType type,
                             const std::vector<FastaRecord>& records);

 private:
  std::string species_;
  int release_ = 0;
  AssemblyType type_ = AssemblyType::kToplevel;
  std::vector<Contig> contigs_;
};

}  // namespace staratlas
