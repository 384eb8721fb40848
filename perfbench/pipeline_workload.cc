// The pipeline_atlas workload: PipelineRunner::process over a catalog of
// SRA accessions, in process, ending with DESeq2 over the count matrix.

#include <malloc.h>

#include <algorithm>
#include <exception>
#include <iostream>
#include <thread>

#include "align/early_stopping.h"
#include "align/run_request.h"
#include "common.h"
#include "core/pipeline.h"
#include "quant/count_matrix.h"
#include "quant/deseq2.h"
#include "sim/catalog.h"
#include "sra/repository.h"
#include "sra/toolkit.h"

namespace pb {
namespace {

// ---------------------------------------------------------------------
// pipeline: the pipeline_atlas workload, in process.
//
// The catalog mixes bulk accessions with deeper single-cell ones at a
// share (2 of 8) high enough that every pass over it early-stops some.
// Sample sizes are fixed by library type, so total work does not depend
// on the seed; the seed picks accessions, order and read content. The
// timed window runs whole passes over the catalog, so every run aligns
// the same mix.

struct PipelineSample {
  std::string accession;
  double start = 0.0;
  double end = 0.0;
  u64 total_reads = 0;
  MappingStats stats;
  bool stopped = false;
  bool ok = false;
  double align_s = 0.0;
  double dump_s = 0.0;
  double fastq_mb = 0.0;
};

struct PipelineReference {
  MappingStats stats;
  GeneCountsTable counts;
  EarlyStopDecision decision;
};

bool same_stats(const MappingStats& a, const MappingStats& b) {
  return a.processed == b.processed && a.unique == b.unique &&
         a.multi == b.multi && a.too_many == b.too_many &&
         a.unmapped == b.unmapped && a.seeds_generated == b.seeds_generated &&
         a.windows_scored == b.windows_scored &&
         a.bases_compared == b.bases_compared;
}

bool same_counts(const GeneCountsTable& a, const GeneCountsTable& b) {
  return a.per_gene == b.per_gene && a.n_unmapped == b.n_unmapped &&
         a.n_multimapping == b.n_multimapping &&
         a.n_no_feature == b.n_no_feature && a.n_ambiguous == b.n_ambiguous;
}

struct Window {
  std::vector<PipelineSample> samples;
  usize passes = 0;
  double window_s = 0.0;
  double cpu_s = 0.0;
  double deseq2_s = 0.0;

  std::string rows() const {
    std::vector<std::string> items;
    for (const PipelineSample& s : samples) {
      items.push_back(Obj()
                          .s("name", s.accession)
                          .n("start", s.start)
                          .n("end", s.end)
                          .n("reads", static_cast<double>(s.total_reads))
                          .add("stats", stats_json(s.stats))
                          .b("early_stopped", s.stopped)
                          .b("ok", s.ok)
                          .n("align_s", s.align_s)
                          .n("dump_s", s.dump_s)
                          .n("fastq_mb", s.fastq_mb)
                          .str());
    }
    return array(items);
  }
};

Window run_window(PipelineRunner& runner, SraRepository& repository,
                  const std::vector<SraSample>& catalog,
                  const std::map<std::string, PipelineReference>& reference,
                  const Annotation& annotation, double seconds,
                  Tracer& tracer) {
  std::vector<std::string> gene_ids;
  for (const Gene& gene : annotation.genes()) gene_ids.push_back(gene.id);
  CountMatrix matrix(gene_ids);
  Window window;
  const double cpu0 = cpu_seconds();
  const double start = now_s();
  while (now_s() - start < seconds || window.passes == 0) {
    for (const SraSample& meta : catalog) {
      const i64 id = static_cast<i64>(window.samples.size());
      PipelineSample sample;
      sample.accession = meta.accession;
      sample.start = now_s();
      Scoped root(tracer, "sample", 0, id);
      if (tracer.enabled()) {
        // Replays the runner's own prefetch() call so the trace can split
        // it out of core.process; the untraced run never makes it.
        Scoped span(tracer, "sra.prefetch", root.id(), id);
        prefetch(repository, meta.accession);
      }
      SampleResult result;
      {
        Scoped span(tracer, "core.process", root.id(), id);
        result = runner.process(meta.accession);
        const double end = now_s();
        tracer.add("align.execute", span.id(), id,
                   end - result.align_wall_seconds, end);
        tracer.add("sra.dump", span.id(), id, end - result.dump_wall_seconds,
                   end, /*overlap=*/true);
      }
      {
        Scoped span(tracer, "align.tsv", root.id(), id);
        std::ostringstream tsv;
        result.gene_counts.write_tsv(tsv, annotation);
      }
      sample.end = now_s();
      if (result.accepted) {
        matrix.add_sample(meta.accession, result.gene_counts);
      }
      sample.total_reads = result.total_reads;
      sample.stats = result.stats;
      sample.stopped = result.early_stop.stopped;
      sample.align_s = result.align_wall_seconds;
      sample.dump_s = result.dump_wall_seconds;
      sample.fastq_mb = result.fastq_bytes.bytes() / 1e6;
      const PipelineReference& ref = reference.at(meta.accession);
      sample.ok = same_stats(result.stats, ref.stats) &&
                  same_counts(result.gene_counts, ref.counts) &&
                  result.early_stop.stopped == ref.decision.stopped &&
                  result.early_stop.at_reads == ref.decision.at_reads;
      window.samples.push_back(std::move(sample));
    }
    ++window.passes;
  }
  {
    Scoped span(tracer, "quant.deseq2");
    const double t0 = now_s();
    const NormalizedCounts normalized = deseq2_normalize(matrix);
    window.deseq2_s = now_s() - t0;
    if (normalized.size_factors.size() != matrix.num_samples()) {
      throw InternalError("deseq2 returned the wrong number of factors");
    }
  }
  window.window_s = now_s() - start;
  window.cpu_s = cpu_seconds() - cpu0;
  return window;
}

std::vector<SraSample> bench_catalog(const Flags& flags) {
  CatalogSpec spec;
  spec.num_samples = flags.u("samples");
  spec.single_cell_fraction = flags.d("sc-fraction");
  spec.seed = flags.u("seed");
  std::vector<SraSample> catalog = make_catalog(spec);
  for (SraSample& sample : catalog) {
    sample.num_reads = sample.type == LibraryType::kSingleCell
                           ? flags.u("sc-reads")
                           : flags.u("bulk-reads");
  }
  // Bulk accessions first, in catalog order: the seed must not change the
  // order of container sizes, which sets the allocator's peak footprint.
  std::stable_partition(catalog.begin(), catalog.end(), [](const SraSample& s) {
    return s.type == LibraryType::kBulk;
  });
  return catalog;
}

/// One line per accession: stats, early-stop decision, gene counts.
void write_reference(std::ostream& out, const std::string& accession,
                     const PipelineReference& ref) {
  const MappingStats& s = ref.stats;
  const GeneCountsTable& c = ref.counts;
  out << accession << ' ' << s.processed << ' ' << s.unique << ' ' << s.multi
      << ' ' << s.too_many << ' ' << s.unmapped << ' ' << s.seeds_generated
      << ' ' << s.windows_scored << ' ' << s.bases_compared << ' '
      << ref.decision.stopped << ' ' << ref.decision.at_reads << ' '
      << c.n_unmapped << ' ' << c.n_multimapping << ' ' << c.n_no_feature
      << ' ' << c.n_ambiguous << ' ' << c.per_gene.size();
  for (u64 count : c.per_gene) out << ' ' << count;
  out << '\n';
}

std::map<std::string, PipelineReference> read_reference(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot read " + path);
  std::map<std::string, PipelineReference> reference;
  std::string accession;
  while (in >> accession) {
    PipelineReference ref;
    MappingStats& s = ref.stats;
    GeneCountsTable& c = ref.counts;
    usize genes = 0;
    in >> s.processed >> s.unique >> s.multi >> s.too_many >> s.unmapped >>
        s.seeds_generated >> s.windows_scored >> s.bases_compared >>
        ref.decision.stopped >> ref.decision.at_reads >> c.n_unmapped >>
        c.n_multimapping >> c.n_no_feature >> c.n_ambiguous >> genes;
    c.per_gene.resize(genes);
    for (u64& count : c.per_gene) in >> count;
    if (!in) throw ParseError("malformed reference line for " + accession);
    reference[accession] = std::move(ref);
  }
  return reference;
}

}  // namespace

// pipeline-ref: the reference of every accession — fasterq_dump of its
// container, aligned by a 1-thread engine.execute with the same
// early-stop rule — spread over --threads engines of one thread each.
int cmd_pipeline_ref(const Flags& flags) {
  const std::string genome = flags.str("genome");
  const usize threads = flags.u("threads");
  const std::vector<SraSample> catalog = bench_catalog(flags);
  const World world;
  SraRepository repository(catalog, world.simulator);
  for (const SraSample& sample : catalog) repository.fetch(sample.accession);

  const GenomeIndex index = GenomeIndex::load_file(genome + "/genome.idx");
  Tracer off(false);
  const Annotation annotation =
      annotation_from_index(index, genome + "/annotation.gtf", off, 0);
  const EarlyStopPolicy policy = PipelineConfig{}.early_stop;
  std::vector<PipelineReference> refs(catalog.size());
  std::vector<std::thread> workers;
  std::exception_ptr failure;
  std::mutex failure_mu;
  for (usize t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        AlignmentEngine engine(index, &annotation, engine_config(1));
        for (usize i = t; i < catalog.size(); i += threads) {
          // Only fetches of materialized containers: map lookups, no
          // insertion, so concurrent calls are safe.
          const DumpResult dump =
              fasterq_dump(repository.fetch(catalog[i].accession));
          EngineRunRequest request;
          request.reads = &dump.reads;
          request.early_stop = policy;
          request.early_stop_out = &refs[i].decision;
          const AlignmentRun run = engine.execute(request);
          refs[i].stats = run.stats;
          refs[i].counts = run.gene_counts;
        }
      } catch (...) {
        std::lock_guard lock(failure_mu);
        failure = std::current_exception();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  if (failure) std::rethrow_exception(failure);
  std::ofstream out(flags.str("out"));
  for (usize i = 0; i < catalog.size(); ++i) {
    write_reference(out, catalog[i].accession, refs[i]);
  }
  if (!out) throw IoError("cannot write " + flags.str("out"));
  std::cout << "{}\n";
  return 0;
}

int cmd_pipeline(const Flags& flags) {
  const std::string genome = flags.str("genome");
  const double seconds = flags.d("seconds");
  const usize setups = flags.u("setups");
  const usize threads = flags.u("threads");
  Tracer tracer(flags.u("trace") != 0);

  // Inputs, never timed: the catalog with every container materialized,
  // and the reference from pipeline-ref.
  const std::vector<SraSample> catalog = bench_catalog(flags);
  const World world;
  SraRepository repository(catalog, world.simulator);
  for (const SraSample& sample : catalog) repository.fetch(sample.accession);
  const std::map<std::string, PipelineReference> reference =
      read_reference(flags.str("ref"));
  PipelineConfig config;
  config.engine = engine_config(threads);

  // Set-up, repeated: index attach, annotation and runner construction.
  // There is no warm-up sample: the window's first sample pays the index
  // page faults, as a real campaign's does. Inputs the benchmark already
  // holds are excluded from peak RSS by measuring it relative to the RSS
  // at this point.
  // Heap the input preparation freed goes back to the system first, so
  // the surface cannot reuse it unseen.
  malloc_trim(0);
  const double input_rss = resident_bytes();
  const PeakRssSampler rss;
  std::vector<double> setup_s;
  std::vector<double> attach_s;
  std::unique_ptr<GenomeIndex> index;
  std::unique_ptr<Annotation> annotation;
  std::unique_ptr<PipelineRunner> runner;
  for (usize i = 0; i < setups; ++i) {
    runner.reset();
    annotation.reset();
    index.reset();
    Scoped setup(tracer, "setup");
    const double t0 = now_s();
    {
      Scoped span(tracer, "index.attach", setup.id());
      index = std::make_unique<GenomeIndex>(
          GenomeIndex::load_file(genome + "/genome.idx"));
    }
    attach_s.push_back(now_s() - t0);
    annotation = std::make_unique<Annotation>(annotation_from_index(
        *index, genome + "/annotation.gtf", tracer, setup.id()));
    {
      Scoped span(tracer, "core.runner_setup", setup.id());
      runner = std::make_unique<PipelineRunner>(*index, *annotation,
                                                repository, config);
    }
    setup_s.push_back(now_s() - t0);
  }

  // The timed window: whole passes over the catalog, then DESeq2 over the
  // count matrix of every accepted sample. A traced run measures one
  // untraced window and then one traced window.
  Tracer off(false);
  const Window untraced = run_window(*runner, repository, catalog, reference,
                                     *annotation, seconds, off);
  const double peak_rss = rss.peak_bytes() - input_rss;
  Obj out;
  out.add("samples", untraced.rows())
      .n("window_s", untraced.window_s)
      .n("cpu_s", untraced.cpu_s)
      .n("peak_rss_mb", peak_rss / 1e6)
      .n("index_resident_mb", index->stats().total().bytes() / 1e6);
  if (tracer.enabled()) {
    const Window traced = run_window(*runner, repository, catalog, reference,
                                     *annotation, seconds, tracer);
    out.add("traced_samples", traced.rows())
        .n("traced_deseq2_s", traced.deseq2_s);
  }
  std::vector<std::string> setup_rows;
  for (usize i = 0; i < setup_s.size(); ++i) {
    setup_rows.push_back(
        Obj().n("setup_s", setup_s[i]).n("attach_s", attach_s[i]).str());
  }
  out.add("setups", array(setup_rows)).add("spans", tracer.json());
  std::cout << out.str() << "\n";
  return 0;
}

}  // namespace pb

int main(int argc, char** argv) {
  return pb::dispatch(argc, argv, {{"pipeline", pb::cmd_pipeline},
                                   {"pipeline-ref", pb::cmd_pipeline_ref}});
}
