// staratlas_cli — a file-based command-line front end to the library,
// mirroring a miniature sra-tools + STAR workflow:
//
//   staratlas_cli synthesize --out-dir data [--release 111] [--seed 42]
//       writes genome.fa (toplevel), annotation.gtf
//   staratlas_cli index --fasta data/genome.fa --out data/genome.idx
//   staratlas_cli simulate --fasta data/genome.fa --gtf data/annotation.gtf ...
//       --profile bulk|single_cell --reads 5000 --out data/sample.fastq
//   staratlas_cli align --index data/genome.idx --fastq data/sample.fastq \
//       --gtf data/annotation.gtf --out-prefix data/sample ...
//       [--threads 4] [--shards 4] [--early-stop] [--no-sam]
//       writes sample.sam, sample.SJ.out.tab, sample.ReadsPerGene.out.tab,
//       sample.Log.final.out; every read is aligned once, and the SAM is
//       byte-identical at any --threads and --shards (an early-stopped
//       run writes none)
//   staratlas_cli serve --index data/genome.idx --socket /tmp/sa.sock
//       [--gtf data/annotation.gtf] [--workers 2] [--chunk 256]
//       long-running multi-tenant daemon; loads the index once and aligns
//       every submission against it until a client sends DRAIN
//   staratlas_cli submit --socket /tmp/sa.sock --fastq data/sample.fastq
//       --tenant acme [--name sample] [--out-prefix data/sample]
//       hands one sample to a running daemon; staratlas_cli submit
//       --socket /tmp/sa.sock --drain gracefully drains it
//
// Run without arguments for usage. Exit code 0 on success, 1 on usage
// errors, 2 on runtime failures.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "align/early_stopping.h"
#include "align/engine.h"
#include "align/final_log.h"
#include "align/junctions.h"
#include "align/run_request.h"
#include "align/sam.h"
#include "common/error.h"
#include "genome/synthesizer.h"
#include "index/genome_index.h"
#include "io/fasta.h"
#include "io/fastq.h"
#include "io/gtf.h"
#include "io/shard_plan.h"
#include "service/rpc.h"
#include "service/service.h"
#include "sim/read_simulator.h"

using namespace staratlas;

namespace {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw InvalidArgument("expected --flag, got '" + key + "'");
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) throw InvalidArgument("missing --" + key);
    return it->second;
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }
  u64 get_u64(const std::string& key, u64 fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoull(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

int usage() {
  std::cerr <<
      "usage: staratlas_cli <command> [flags]\n"
      "  synthesize --out-dir DIR [--release 108|111] [--seed N]\n"
      "  index      --fasta FILE --out FILE [--release N] [--threads N]\n"
      "             [--format v3|v4]   (v4 = 2-bit packed genome text)\n"
      "  simulate   --fasta FILE --gtf FILE --out FILE\n"
      "             [--profile bulk|single_cell] [--reads N] [--seed N]\n"
      "  align      --index FILE --fastq FILE --out-prefix P\n"
      "             [--gtf FILE] [--threads N] [--shards N] [--early-stop]\n"
      "             [--no-sam]\n";
  std::cerr <<
      "  serve      --index FILE --socket PATH\n"
      "             [--gtf FILE] [--workers N] [--chunk N]\n"
      "  submit     --socket PATH --fastq FILE --tenant NAME\n"
      "             [--name NAME] [--out-prefix P]\n"
      "  submit     --socket PATH --drain\n";
  return 1;
}

// The synthesize/simulate commands share one genome spec so annotation and
// repeat regions are reproducible from the seed alone.
GenomeSpec cli_spec(u64 seed) {
  GenomeSpec spec;
  spec.num_chromosomes = 2;
  spec.chromosome_length = 200'000;
  spec.genes_per_chromosome = 20;
  spec.seed = seed;
  return spec;
}

int cmd_synthesize(const Args& args) {
  const std::string out_dir = args.require("out-dir");
  const int release = static_cast<int>(args.get_u64("release", 111));
  const u64 seed = args.get_u64("seed", 42);
  std::filesystem::create_directories(out_dir);

  const GenomeSynthesizer synthesizer(cli_spec(seed));
  const Assembly assembly = synthesizer.make_release(
      release == 108 ? release108_style() : release111_style());
  write_fasta_file(out_dir + "/genome.fa", assembly.to_fasta());
  write_gtf_file(out_dir + "/annotation.gtf",
                 synthesizer.annotation().to_gtf(assembly));
  std::cout << "wrote " << out_dir << "/genome.fa ("
            << assembly.fasta_size().str() << ", " << assembly.num_contigs()
            << " contigs, release " << release << ")\n"
            << "wrote " << out_dir << "/annotation.gtf ("
            << synthesizer.annotation().num_genes() << " genes)\n";
  return 0;
}

int cmd_index(const Args& args) {
  const std::string fasta = args.require("fasta");
  const std::string out = args.require("out");
  const int release = static_cast<int>(args.get_u64("release", 0));
  const Assembly assembly = Assembly::from_fasta(
      "cli", release, AssemblyType::kToplevel, read_fasta_file(fasta));
  IndexParams params;
  params.num_threads = args.get_u64("threads", 1);
  const std::string format = args.get("format", "v3");
  u32 version = GenomeIndex::kVersionLatest;
  if (format == "v4") {
    version = GenomeIndex::kVersionV4;
  } else if (format != "v3") {
    std::cerr << "error: --format must be v3 or v4, got '" << format << "'\n";
    return 2;
  }
  const GenomeIndex index = GenomeIndex::build(assembly, params);
  index.save_file(out, version);
  const IndexStats stats = index.stats();
  std::cout << "indexed " << stats.genome_length << " bp into " << out << " ("
            << stats.total().str() << ", LUT k=" << stats.prefix_lut_k
            << (format == "v4" ? ", packed v4" : "") << ")\n";
  return 0;
}

int cmd_simulate(const Args& args) {
  const std::string fasta = args.require("fasta");
  const std::string gtf = args.require("gtf");
  const std::string out = args.require("out");
  const std::string profile_name = args.get("profile", "bulk");
  const usize num_reads = args.get_u64("reads", 5'000);
  const u64 seed = args.get_u64("seed", 7);

  const Assembly assembly = Assembly::from_fasta(
      "cli", 0, AssemblyType::kToplevel, read_fasta_file(fasta));
  const Annotation annotation =
      Annotation::from_gtf(read_gtf_file(gtf), assembly);

  // Recover repeat regions is not possible from FASTA alone; simulate
  // without repeat reads when running from files.
  LibraryProfile profile = profile_name == "single_cell"
                               ? single_cell_profile()
                               : bulk_rna_profile();
  profile.exonic_fraction += profile.repeat_fraction;
  profile.repeat_fraction = 0.0;
  profile.validate();

  const ReadSimulator simulator(assembly, annotation, {});
  const auto reads = simulator.simulate(profile, num_reads, Rng(seed));
  write_fastq_file(out, reads.reads);
  std::cout << "wrote " << out << " (" << reads.size() << " reads, "
            << reads.fastq_bytes.str() << ", profile " << profile.name
            << ")\n";
  return 0;
}

// Contig-name resolution for the GTF against a loaded index (align and
// serve have no FASTA on hand; text_substr decodes packed v4 indexes too).
Annotation annotation_from_index(const GenomeIndex& index,
                                 const std::string& gtf_path) {
  std::vector<FastaRecord> records;
  for (const ContigMeta& contig : index.contigs()) {
    records.push_back(
        {contig.name, "",
         index.text_substr(contig.text_offset, contig.length)});
  }
  const Assembly assembly = Assembly::from_fasta(
      "cli", index.release(), index.assembly_type(), records);
  return Annotation::from_gtf(read_gtf_file(gtf_path), assembly);
}

// The whole file in one buffer: the engine block-parses it in place, and
// sharded runs scatter byte ranges of it.
std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size < 0) throw IoError("cannot open FASTQ file: " + path);
  std::string bytes(static_cast<usize>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!in) throw IoError("I/O error while reading FASTQ file: " + path);
  return bytes;
}

int cmd_align(const Args& args) {
  const std::string index_path = args.require("index");
  const std::string fastq = args.require("fastq");
  const std::string prefix = args.require("out-prefix");

  const GenomeIndex index = GenomeIndex::load_file(index_path);
  const std::string raw = read_file_bytes(fastq);
  const FastqCount count = count_fastq_records(raw);

  Annotation annotation;
  const bool quant = args.has("gtf");
  if (quant) annotation = annotation_from_index(index, args.require("gtf"));

  EngineConfig config;
  config.num_threads = args.get_u64("threads", 2);
  config.quant_gene_counts = quant;
  config.collect_junctions = true;
  AlignmentEngine engine(index, quant ? &annotation : nullptr, config);

  // One request for every mode; execute() owns validation (e.g. early-stop
  // x shards rejection) so the CLI carries no mode rules. The engine
  // writes each read's SAM records at its in-order commit.
  const bool sam = !args.has("no-sam");
  const std::string sam_path = prefix + ".sam";
  std::ofstream sam_out;
  if (sam) {
    sam_out.open(sam_path, std::ios::binary);
    if (!sam_out) throw IoError("cannot open SAM file for writing: " + sam_path);
    write_sam_header(sam_out, index);
  }
  const EngineRunRequest request{
      .fastq_text = raw,
      .num_shards = args.get_u64("shards", 1),
      .total_reads_hint = count.records,
      .early_stop = EarlyStopPolicy{.enabled = args.has("early-stop")},
      .sam_out = sam ? &sam_out : nullptr};
  // An aborted or failed run leaves no SAM behind.
  auto discard_sam = [&] {
    if (!sam) return;
    sam_out.close();
    std::filesystem::remove(sam_path);
  };

  AlignmentRun run;
  try {
    run = engine.execute(request);
  } catch (const InvalidArgument& error) {
    discard_sam();
    std::cerr << error.what() << "\n";
    return 1;
  } catch (...) {
    discard_sam();
    throw;
  }
  if (run.aborted) {
    discard_sam();
  } else if (sam) {
    sam_out.close();
    if (!sam_out) throw IoError("failed writing SAM file: " + sam_path);
  }

  // Log.final.out (an empty sample reports a 0 mean length, not NaN)
  const double mean_length =
      count.records == 0 ? 0.0
                         : static_cast<double>(count.sequence_bases) /
                               static_cast<double>(count.records);
  {
    std::ofstream log(prefix + ".Log.final.out");
    log << render_final_log(run, count.records, mean_length);
  }
  // SJ.out.tab
  {
    std::ofstream sj(prefix + ".SJ.out.tab");
    write_junctions_tsv(sj, run.junctions, index);
  }
  // ReadsPerGene.out.tab
  if (quant) {
    std::ofstream counts(prefix + ".ReadsPerGene.out.tab");
    run.gene_counts.write_tsv(counts, annotation);
  }

  std::cout << "aligned " << run.stats.processed << "/" << count.records
            << " reads: " << 100.0 * run.stats.mapped_rate() << "% mapped"
            << (run.aborted ? " [EARLY-STOPPED]" : "") << "\n"
            << "wrote " << (sam && !run.aborted ? sam_path + ", " : "")
            << prefix << ".Log.final.out, " << prefix << ".SJ.out.tab"
            << (quant ? ", " + prefix + ".ReadsPerGene.out.tab" : "") << "\n";
  return 0;
}

int cmd_serve(const Args& args) {
  const std::string index_path = args.require("index");
  const std::string socket_path = args.require("socket");

  auto index = std::make_shared<const GenomeIndex>(
      GenomeIndex::load_file(index_path));
  const bool quant = args.has("gtf");
  Annotation annotation;
  if (quant) {
    annotation = annotation_from_index(*index, args.require("gtf"));
  }

  ServiceConfig config;
  config.engine.num_threads = args.get_u64("workers", 2);
  config.engine.quant_gene_counts = quant;
  config.engine.collect_junctions = true;
  config.engine.chunk_size = args.get_u64("chunk", 256);

  AlignmentService service(index, quant ? &annotation : nullptr, config);
  ServiceServer server(service, quant ? &annotation : nullptr, socket_path);
  std::cout << "serving " << index->stats().genome_length << " bp index on "
            << socket_path << " (" << config.engine.num_threads
            << " workers, chunk " << config.engine.chunk_size
            << " reads); DRAIN to stop\n";
  // A DRAIN request flips the service into draining; exit once it does.
  while (!service.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();
  const auto metrics = service.metrics();
  std::cout << "drained: " << metrics.samples_completed << " samples, "
            << metrics.reads_completed << " reads across "
            << metrics.tenants.size() << " tenant(s)\n";
  return 0;
}

int cmd_submit(const Args& args) {
  const std::string socket_path = args.require("socket");
  ServiceClient client(socket_path);
  if (args.has("drain")) {
    const auto response = client.drain();
    if (!response.ok) {
      std::cerr << "error: drain failed: " << response.message << "\n";
      return 2;
    }
    std::cout << "service drained\n";
    return 0;
  }

  const std::string fastq_path = args.require("fastq");
  const std::string tenant = args.require("tenant");
  const std::string name = args.get(
      "name", std::filesystem::path(fastq_path).stem().string());
  const auto response =
      client.submit(tenant, name, read_file_bytes(fastq_path));
  if (!response.ok) {
    std::cerr << "rejected (" << response.error_code
              << "): " << response.message << "\n";
    return 2;
  }
  if (args.has("out-prefix")) {
    const std::string out = args.require("out-prefix") + ".service.out";
    std::ofstream artifact(out);
    artifact << response.body;
    std::cout << "wrote " << out << " (" << response.body.size()
              << " bytes)\n";
  } else {
    std::cout << response.body;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const Args args(argc, argv);
    if (command == "synthesize") return cmd_synthesize(args);
    if (command == "index") return cmd_index(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "align") return cmd_align(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "submit") return cmd_submit(args);
    std::cerr << "unknown command: " << command << "\n";
    return usage();
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
