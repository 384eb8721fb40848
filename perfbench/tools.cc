// perfbench_tools: the in-process half of the end-to-end benchmark that
// needs neither PipelineRunner nor AlignmentService.
//
// run.py owns the workloads' process structure (it launches the CLI and
// the service daemon as subprocesses); the tool binaries do everything
// that must happen inside a staratlas process:
//
//   perfbench_tools     env           kernels the runtime dispatch picked
//                       prep-genome   bench genome, GTF, v3 index
//                       prep-samples  FASTQ inputs (per seed)
//                       prep-refs     CLI reference artifacts
//                       replay-cli    traced replay of `staratlas_cli align`
//   perfbench_pipeline  pipeline-ref, pipeline      (pipeline_workload.cc)
//   perfbench_service   prep-refs, clients, replay-service
//                                                   (service_workload.cc)
//
// Every command prints one JSON object on stdout. Spans are recorded in
// memory around the benchmark's own calls into each module's public
// functions and written with the result when the command ends.

#include <iostream>

#include "align/aligner.h"
#include "align/final_log.h"
#include "align/junctions.h"
#include "align/run_request.h"
#include "align/sam.h"
#include "common.h"
#include "common/simd.h"
#include "index/packed_text.h"
#include "io/fasta.h"

namespace pb {

// ---------------------------------------------------------------------
// env

int cmd_env(const Flags&) {
  std::cout << Obj()
                   .s("build_type", PERFBENCH_BUILD_TYPE)
                   .s("cxx_flags", PERFBENCH_CXX_FLAGS)
                   .s("simd_detected", simd_level_name(detected_simd_level()))
                   .s("simd_active", simd_level_name(active_simd_level()))
                   .s("packed_lcp", simd_level_name(packed_lcp_active_level()))
                   .str()
            << "\n";
  return 0;
}

// ---------------------------------------------------------------------
// prep-genome --out DIR: genome.fa, annotation.gtf, genome.idx (v3).

int cmd_prep_genome(const Flags& flags) {
  const std::string out = flags.str("out");
  fs::create_directories(out);
  const double t0 = now_s();
  const World world;
  write_fasta_file(out + "/genome.fa", world.assembly.to_fasta());
  write_gtf_file(out + "/annotation.gtf",
                 world.synthesizer.annotation().to_gtf(world.assembly));
  const double t1 = now_s();
  IndexParams params;
  params.num_threads = flags.u("threads");
  const GenomeIndex index = GenomeIndex::build(world.assembly, params);
  index.save_file(out + "/genome.idx", GenomeIndex::kVersionV3);
  const IndexStats stats = index.stats();
  std::cout << Obj()
                   .n("genome_bp", static_cast<double>(stats.genome_length))
                   .n("index_mb", stats.total().bytes() / 1e6)
                   .n("synth_s", t1 - t0)
                   .n("index_build_s", now_s() - t1)
                   .str()
            << "\n";
  return 0;
}

// ---------------------------------------------------------------------
// prep-samples --out DIR --seed N --spec "name:reads,name:reads,...":
// bulk poly-A FASTQ files, each from its own seed derived from N.

int cmd_prep_samples(const Flags& flags) {
  const std::string out = flags.str("out");
  const u64 seed = flags.u("seed");
  fs::create_directories(out);
  const World world;
  u64 ordinal = 0;
  std::vector<std::string> written;
  for (const std::string& item : split(flags.str("spec"))) {
    const auto colon = item.find(':');
    const std::string name = item.substr(0, colon);
    const usize reads = std::stoull(item.substr(colon + 1));
    const ReadSet set = world.simulator->simulate(
        bulk_rna_profile(), reads, Rng(seed * 1'000'003 + ++ordinal));
    write_fastq_file(out + "/" + name + ".fastq", set.reads);
    written.push_back(quote(name));
  }
  std::cout << Obj().add("samples", array(written)).str() << "\n";
  return 0;
}

// ---------------------------------------------------------------------
// prep-refs: the reference the CLI's artifacts are compared
// with, from a 1-thread in-process engine.execute over the same reads:
// P.Log.final.out, P.SJ.out.tab and P.ReadsPerGene.out.tab. P.sam comes
// from the per-read aligner (the engine keeps no hits) and every read's
// outcome there must equal the engine's, so SAM and engine cannot drift
// apart. perfbench_service prep-refs writes the service's reference.

int cmd_prep_cli_refs(const Flags& flags) {
  const std::string genome = flags.str("genome");
  Tracer off(false);
  const GenomeIndex index = GenomeIndex::load_file(genome + "/genome.idx");
  const Annotation annotation =
      annotation_from_index(index, genome + "/annotation.gtf", off, 0);
  AlignmentEngine engine(index, &annotation, engine_config(1));
  usize mismatches = 0;
  for (const std::string& item : split(flags.str("fastq"))) {
    const std::string prefix = flags.str("out") + "/" + item;
    const ReadSet reads = make_read_set(
        read_fastq_file(flags.str("samples") + "/" + item + ".fastq"));
    EngineRunRequest request;
    request.reads = &reads;
    const AlignmentRun run = engine.execute(request);
    write_file(prefix + ".Log.final.out",
               render_final_log(run, reads.size(), mean_read_length(reads)));
    std::ostringstream sj;
    write_junctions_tsv(sj, run.junctions, index);
    write_file(prefix + ".SJ.out.tab", sj.str());
    std::ostringstream counts;
    run.gene_counts.write_tsv(counts, annotation);
    write_file(prefix + ".ReadsPerGene.out.tab", counts.str());
    std::ofstream sam(prefix + ".sam", std::ios::binary);
    SamWriter writer(sam, index);
    const Aligner aligner(index, engine.config().params);
    MappingStats scratch;
    for (usize r = 0; r < reads.size(); ++r) {
      const ReadAlignment alignment =
          aligner.align(reads.reads[r].sequence, scratch);
      if (alignment.outcome != run.outcomes[r]) ++mismatches;
      writer.write_read(reads.reads[r], alignment);
    }
  }
  std::cout << Obj().n("outcome_mismatches", static_cast<double>(mismatches))
                   .str()
            << "\n";
  return mismatches == 0 ? 0 : 3;
}

// ---------------------------------------------------------------------
// replay-cli: the public calls of `staratlas_cli align --gtf` in process,
// one sample per FASTQ in --fastq, alternating a traced and an untraced
// pass over each so the difference is the tracing overhead.

struct ReplayOutcome {
  double wall_s = 0.0;
  MappingStats stats;
  double index_resident_mb = 0.0;
};

ReplayOutcome replay_cli_sample(const std::string& genome,
                                const std::string& fastq,
                                const std::string& prefix, usize threads,
                                Tracer& tracer, i64 id) {
  ReplayOutcome outcome;
  const double t0 = now_s();
  Scoped root(tracer, "sample", 0, id);
  std::unique_ptr<GenomeIndex> index;
  {
    Scoped span(tracer, "index.attach", root.id(), id);
    index = std::make_unique<GenomeIndex>(
        GenomeIndex::load_file(genome + "/genome.idx"));
  }
  ReadSet reads;
  {
    Scoped span(tracer, "io.fastq_parse", root.id(), id);
    reads = make_read_set(read_fastq_file(fastq));
  }
  const Annotation annotation = annotation_from_index(
      *index, genome + "/annotation.gtf", tracer, root.id(), id);
  std::unique_ptr<AlignmentEngine> engine;
  {
    Scoped span(tracer, "align.engine_setup", root.id(), id);
    engine = std::make_unique<AlignmentEngine>(*index, &annotation,
                                               engine_config(threads));
  }
  AlignmentRun run;
  {
    Scoped span(tracer, "align.execute", root.id(), id);
    EngineRunRequest request;
    request.reads = &reads;
    run = engine->execute(request);
  }
  {
    Scoped span(tracer, "align.tsv", root.id(), id);
    std::ofstream(prefix + ".Log.final.out")
        << render_final_log(run, reads.size(), mean_read_length(reads));
    std::ofstream sj(prefix + ".SJ.out.tab");
    write_junctions_tsv(sj, run.junctions, *index);
    std::ofstream counts(prefix + ".ReadsPerGene.out.tab");
    run.gene_counts.write_tsv(counts, annotation);
  }
  {
    Scoped span(tracer, "align.sam", root.id(), id);
    std::ofstream sam_out(prefix + ".sam");
    SamWriter writer(sam_out, *index);
    const Aligner aligner(*index, engine->config().params);
    MappingStats scratch;
    for (const auto& read : reads.reads) {
      writer.write_read(read, aligner.align(read.sequence, scratch));
    }
  }
  outcome.stats = run.stats;
  outcome.index_resident_mb = index->stats().total().bytes() / 1e6;
  {
    Scoped span(tracer, "align.teardown", root.id(), id);
    engine.reset();
    index.reset();
  }
  outcome.wall_s = now_s() - t0;
  return outcome;
}

int cmd_replay_cli(const Flags& flags) {
  const std::string genome = flags.str("genome");
  const std::string out = flags.str("out");
  const usize threads = flags.u("threads");
  Tracer tracer(true);
  Tracer off(false);
  std::vector<std::string> rows;
  i64 id = 0;
  for (const std::string& fastq : split(flags.str("fastq"))) {
    const ReplayOutcome traced =
        replay_cli_sample(genome, fastq, out + "/replay", threads, tracer, id);
    const ReplayOutcome untraced =
        replay_cli_sample(genome, fastq, out + "/replay", threads, off, id);
    rows.push_back(Obj()
                       .n("sample", static_cast<double>(id))
                       .n("traced_s", traced.wall_s)
                       .n("untraced_s", untraced.wall_s)
                       .add("stats", stats_json(traced.stats))
                       .n("index_resident_mb", traced.index_resident_mb)
                       .n("fastq_mb", fs::file_size(fastq) / 1e6)
                       .n("sam_mb", fs::file_size(out + "/replay.sam") / 1e6)
                       .str());
    ++id;
  }
  std::cout << Obj()
                   .add("samples", array(rows))
                   .add("spans", tracer.json())
                   .str()
            << "\n";
  return 0;
}

}  // namespace pb

int main(int argc, char** argv) {
  return pb::dispatch(argc, argv,
                      {{"env", pb::cmd_env},
                       {"prep-genome", pb::cmd_prep_genome},
                       {"prep-samples", pb::cmd_prep_samples},
                       {"prep-refs", pb::cmd_prep_cli_refs},
                       {"replay-cli", pb::cmd_replay_cli}});
}
