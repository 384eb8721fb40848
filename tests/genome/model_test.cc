#include "genome/model.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace staratlas {
namespace {

Assembly make_test_assembly() {
  std::vector<Contig> contigs = {
      {"1", ContigClass::kChromosome, std::string(1000, 'A')},
      {"2", ContigClass::kChromosome, std::string(800, 'C')},
      {"KI270001.1", ContigClass::kUnlocalizedScaffold, std::string(200, 'G')},
      {"GL000001.1", ContigClass::kUnplacedScaffold, std::string(100, 'T')},
  };
  return Assembly("Test species", 111, AssemblyType::kToplevel,
                  std::move(contigs));
}

TEST(Assembly, CountsAndLengths) {
  const Assembly assembly = make_test_assembly();
  EXPECT_EQ(assembly.num_contigs(), 4u);
  EXPECT_EQ(assembly.total_length(), 2100u);
  EXPECT_EQ(assembly.length_of(ContigClass::kChromosome), 1800u);
  EXPECT_EQ(assembly.length_of(ContigClass::kUnlocalizedScaffold), 200u);
  EXPECT_EQ(assembly.length_of(ContigClass::kUnplacedScaffold), 100u);
  EXPECT_EQ(assembly.count_of(ContigClass::kChromosome), 2u);
  EXPECT_EQ(assembly.count_of(ContigClass::kUnlocalizedScaffold), 1u);
}

TEST(Assembly, Lookup) {
  const Assembly assembly = make_test_assembly();
  EXPECT_NE(assembly.find_contig("KI270001.1"), nullptr);
  EXPECT_EQ(assembly.find_contig("nope"), nullptr);
}

TEST(Assembly, PrimaryAssemblyDropsScaffolds) {
  const Assembly primary = make_test_assembly().primary_assembly();
  EXPECT_EQ(primary.type(), AssemblyType::kPrimaryAssembly);
  EXPECT_EQ(primary.num_contigs(), 2u);
  EXPECT_EQ(primary.total_length(), 1800u);
}

TEST(Assembly, FastaRoundTripPreservesClasses) {
  const Assembly assembly = make_test_assembly();
  const auto records = assembly.to_fasta();
  const Assembly parsed = Assembly::from_fasta(
      assembly.species(), assembly.release(), assembly.type(), records);
  ASSERT_EQ(parsed.num_contigs(), assembly.num_contigs());
  for (usize i = 0; i < parsed.num_contigs(); ++i) {
    EXPECT_EQ(parsed.contig(static_cast<ContigId>(i)).cls,
              assembly.contig(static_cast<ContigId>(i)).cls);
    EXPECT_EQ(parsed.contig(static_cast<ContigId>(i)).sequence,
              assembly.contig(static_cast<ContigId>(i)).sequence);
  }
}

TEST(Assembly, FastaSizeMatchesSerialization) {
  const Assembly assembly = make_test_assembly();
  std::ostringstream out;
  write_fasta(out, assembly.to_fasta(), 60);
  EXPECT_EQ(assembly.fasta_size().bytes(), out.str().size());
}

TEST(Assembly, RejectsEmptyContig) {
  std::vector<Contig> contigs = {{"1", ContigClass::kChromosome, ""}};
  EXPECT_THROW(
      Assembly("s", 1, AssemblyType::kToplevel, std::move(contigs)),
      InternalError);
}

TEST(ContigClassNames, AllNamed) {
  EXPECT_STREQ(contig_class_name(ContigClass::kChromosome), "chromosome");
  EXPECT_STREQ(contig_class_name(ContigClass::kUnlocalizedScaffold),
               "unlocalized");
  EXPECT_STREQ(contig_class_name(ContigClass::kUnplacedScaffold), "unplaced");
  EXPECT_STREQ(assembly_type_name(AssemblyType::kToplevel), "toplevel");
  EXPECT_STREQ(assembly_type_name(AssemblyType::kPrimaryAssembly),
               "primary_assembly");
}

}  // namespace
}  // namespace staratlas
