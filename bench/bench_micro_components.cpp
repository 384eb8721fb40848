// MICRO — google-benchmark microbenchmarks for the library's components:
// suffix-array construction, MMP lookups (per-query and batched), the
// X-drop extension kernels at every compiled SIMD level, single-read
// alignment on both releases, FASTQ parsing, SRA container codec, DESeq2
// normalization, and the discrete-event kernel. The per-kernel rows report
// reads(items)/sec plus bytes-compared-per-cycle so the perf trajectory
// attributes hot-path speedups to the kernel that earned them.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>

#include "align/aligner.h"
#include "align/extend.h"
#include "align/seed.h"
#include "bench_common.h"
#include "cloud/event_sim.h"
#include "common/simd.h"
#include "index/suffix_array.h"
#include "io/fastq.h"
#include "quant/deseq2.h"
#include "sim/catalog.h"
#include "sra/container.h"

#if defined(STARATLAS_X86_SIMD)
#include <x86intrin.h>
#endif

using namespace staratlas;
using namespace staratlas::bench;

namespace {

std::string random_dna(usize length, u64 seed) {
  static const char kBases[] = "ACGT";
  Rng rng(seed);
  std::string text(length, 'A');
  for (auto& c : text) c = kBases[rng.uniform(4)];
  return text;
}

void BM_SuffixArraySais(benchmark::State& state) {
  const std::string text = random_dna(static_cast<usize>(state.range(0)), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_suffix_array(text));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SuffixArraySais)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_SuffixArrayDoublingReference(benchmark::State& state) {
  const std::string text = random_dna(static_cast<usize>(state.range(0)), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_suffix_array_doubling(text));
  }
}
BENCHMARK(BM_SuffixArrayDoublingReference)->Arg(10'000)->Arg(100'000);

void BM_IndexBuild(benchmark::State& state) {
  const BenchWorld& w = bench_world();
  const Assembly& assembly = state.range(0) == 108 ? w.r108 : w.r111;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenomeIndex::build(assembly));
  }
}
BENCHMARK(BM_IndexBuild)->Arg(108)->Arg(111)->Unit(benchmark::kMillisecond);

void BM_MmpLookup(benchmark::State& state) {
  const BenchWorld& w = bench_world();
  const std::string query = w.r111.contig(0).sequence.substr(50'000, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.index111.mmp(query));
  }
}
BENCHMARK(BM_MmpLookup);

/// Cycle counter for the bytes-per-cycle kernel metric; 0 when the build
/// has no TSC (the counter row is then omitted).
u64 cycle_stamp() {
#if defined(STARATLAS_X86_SIMD)
  return __rdtsc();
#else
  return 0;
#endif
}

/// MMP probe kernel: per-query mmp() vs the 64-lane batched walker. The
/// corpus is large (16k read-prefix queries over all contigs, consumed in
/// 256-query slices, one slice per iteration) so the suffix-array walk
/// paths are not resident from the previous iteration — the dependent-load
/// latency the batch interleaving exists to hide is actually present, as
/// it is when the engine streams fresh reads. items == queries resolved,
/// bytes == characters matched (the suffix comparisons the probes pay
/// for).
void BM_MmpProbe(benchmark::State& state) {
  const BenchWorld& w = bench_world();
  const bool batched = state.range(0) == 1;
  constexpr usize kSlice = 256;
  constexpr usize kCorpus = 16'384;
  Rng rng(17);
  std::vector<std::string> corpus;
  for (usize i = 0; i < kCorpus; ++i) {
    const std::string& chrom = w.r111.contig(i % w.r111.num_contigs()).sequence;
    const u64 len = 30 + rng.uniform(90);
    std::string q = chrom.substr(rng.uniform(chrom.size() - len), len);
    if (i % 3 == 0) q[rng.uniform(q.size())] = 'N';  // MMP ends mid-query
    corpus.push_back(std::move(q));
  }
  std::vector<std::string_view> views(corpus.begin(), corpus.end());
  std::vector<MmpResult> results(kSlice);

  u64 chars = 0;
  u64 cycles = 0;
  usize slice = 0;
  for (auto _ : state) {
    const auto queries =
        std::span(views).subspan(slice * kSlice, kSlice);
    slice = (slice + 1) % (kCorpus / kSlice);
    const u64 t0 = cycle_stamp();
    if (batched) {
      w.index111.mmp_batch(queries, results);
    } else {
      for (usize i = 0; i < queries.size(); ++i) {
        w.index111.mmp(queries[i], results[i]);
      }
    }
    cycles += cycle_stamp() - t0;
    for (const MmpResult& r : results) chars += r.length;
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kSlice));
  state.SetBytesProcessed(static_cast<i64>(chars));
  if (cycles > 0) {
    state.counters["bytes_per_cycle"] =
        static_cast<double>(chars) / static_cast<double>(cycles);
  }
  state.SetLabel(batched ? "mmp_batch" : "mmp_per_query");
}
BENCHMARK(BM_MmpProbe)->Arg(0)->Arg(1);

/// X-drop extension through the production striped driver, isolated per
/// strip-mask level (Arg 0/1/2 = scalar/sse2/avx2; levels this build or
/// CPU lacks are skipped). Each iteration runs one forward and one
/// backward 150-base task in one driver pass. "exact" rows scan
/// mismatch-free text — the fast path where a seed extends cleanly to the
/// read end; "banded" rows scan 5%-mismatch text, the error-tolerant tail
/// where the x-drop scorer does real work. items == scans, bytes == bases
/// compared, bytes_per_cycle == comparator throughput.
void BM_XdropExtend(benchmark::State& state) {
  const auto level = static_cast<SimdLevel>(state.range(0));
  const bool banded = state.range(1) == 1;
  const StripMaskFn mask = strip_mask_kernel(level);
  if (mask == nullptr || level > detected_simd_level()) {
    state.SkipWithError("SIMD level not available in this build or CPU");
    return;
  }
  constexpr usize kLen = 150;  // one read length per scan
  constexpr int kXdrop = 100;
  Rng rng(23);
  std::string text(kLen, 'A');
  for (auto& c : text) c = "ACGT"[rng.uniform(4)];
  std::string query = text;
  if (banded) {
    for (auto& c : query) {
      if (rng.chance(0.05)) c = "ACGT"[rng.uniform(4)];
    }
  }
  ScanTask fwd;
  fwd.limit = kLen;
  ScanTask bwd;
  bwd.read_pos = kLen;
  bwd.text_pos = kLen;
  bwd.limit = kLen;
  bwd.fwd = false;
  ScanTask tasks[2];
  std::vector<u32> live;

  u64 compared = 0;
  u64 cycles = 0;
  for (auto _ : state) {
    tasks[0] = fwd;
    tasks[1] = bwd;
    const u64 t0 = cycle_stamp();
    run_scan_tasks(query, text, kXdrop, mask, tasks, live);
    cycles += cycle_stamp() - t0;
    compared += tasks[0].compared + tasks[1].compared;
    benchmark::DoNotOptimize(tasks[0].best_matched + tasks[1].best_matched);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 2);
  state.SetBytesProcessed(static_cast<i64>(compared));
  if (cycles > 0) {
    state.counters["bytes_per_cycle"] =
        static_cast<double>(compared) / static_cast<double>(cycles);
  }
  state.SetLabel(std::string(simd_level_name(level)) +
                 (banded ? "/banded" : "/exact"));
}
BENCHMARK(BM_XdropExtend)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1});

/// The full seed phase per-read vs batched — the composite the MMP probe
/// interleaving is meant to move. items == reads seeded.
void BM_SeedPhase(benchmark::State& state) {
  const BenchWorld& w = bench_world();
  const bool batched = state.range(0) == 1;
  const AlignerParams params;
  const ReadSet reads = w.simulator->simulate(bulk_rna_profile(), 256, Rng(29));
  std::vector<std::string_view> views;
  for (const auto& read : reads.reads) views.push_back(read.sequence);
  std::vector<SeedSearchResult> results(views.size());
  SeedBatchScratch scratch;

  u64 chars = 0;
  for (auto _ : state) {
    if (batched) {
      find_seeds_batch(w.index111, views, params, results, scratch);
    } else {
      for (usize i = 0; i < views.size(); ++i) {
        find_seeds(w.index111, views[i], params, results[i]);
      }
    }
    for (const auto& r : results) chars += r.chars_matched;
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(views.size()));
  state.SetBytesProcessed(static_cast<i64>(chars));
  state.SetLabel(batched ? "find_seeds_batch" : "find_seeds");
}
BENCHMARK(BM_SeedPhase)->Arg(0)->Arg(1);

void BM_AlignRead(benchmark::State& state) {
  const BenchWorld& w = bench_world();
  const GenomeIndex& index = state.range(0) == 108 ? w.index108 : w.index111;
  const bool repeat_read = state.range(1) == 1;
  LibraryProfile profile = bulk_rna_profile();
  if (repeat_read) {
    profile.exonic_fraction = 0;
    profile.intronic_fraction = 0;
    profile.intergenic_fraction = 0;
    profile.repeat_fraction = 1.0;
    profile.junk_fraction = 0;
  }
  const ReadSet reads = w.simulator->simulate(profile, 64, Rng(5));
  const Aligner aligner(index, AlignerParams{});
  usize i = 0;
  for (auto _ : state) {
    MappingStats work;
    benchmark::DoNotOptimize(
        aligner.align(reads.reads[i % reads.size()].sequence, work));
    ++i;
  }
}
BENCHMARK(BM_AlignRead)
    ->Args({111, 0})
    ->Args({108, 0})
    ->Args({111, 1})
    ->Args({108, 1});

void BM_FastqParse(benchmark::State& state) {
  const BenchWorld& w = bench_world();
  const ReadSet reads = w.simulator->simulate(bulk_rna_profile(), 2'000, Rng(6));
  std::ostringstream out;
  write_fastq(out, reads.reads);
  const std::string fastq = out.str();
  for (auto _ : state) {
    std::istringstream in(fastq);
    benchmark::DoNotOptimize(read_fastq(in));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(fastq.size()));
}
BENCHMARK(BM_FastqParse);

void BM_SraEncodeDecode(benchmark::State& state) {
  const BenchWorld& w = bench_world();
  const ReadSet reads = w.simulator->simulate(bulk_rna_profile(), 2'000, Rng(7));
  SraMetadata metadata;
  metadata.accession = "SRR1";
  metadata.num_reads = reads.size();
  for (const auto& read : reads.reads) {
    metadata.total_bases += read.sequence.size();
  }
  for (auto _ : state) {
    const auto container = sra_encode(metadata, reads.reads);
    benchmark::DoNotOptimize(sra_decode(container));
  }
}
BENCHMARK(BM_SraEncodeDecode)->Unit(benchmark::kMillisecond);

void BM_Deseq2Normalize(benchmark::State& state) {
  Rng rng(8);
  const usize genes = 500;
  const usize samples = 32;
  std::vector<std::string> ids;
  for (usize g = 0; g < genes; ++g) ids.push_back("G" + std::to_string(g));
  CountMatrix matrix(ids);
  for (usize s = 0; s < samples; ++s) {
    GeneCountsTable table(genes);
    for (auto& count : table.per_gene) count = 1 + rng.uniform(5'000);
    matrix.add_sample("S" + std::to_string(s), table);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(deseq2_normalize(matrix));
  }
}
BENCHMARK(BM_Deseq2Normalize);

void BM_EventKernel(benchmark::State& state) {
  for (auto _ : state) {
    SimKernel kernel;
    u64 counter = 0;
    for (int i = 0; i < 10'000; ++i) {
      kernel.schedule_after(VirtualDuration::seconds(i % 100), [&counter] {
        ++counter;
      });
    }
    kernel.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 10'000);
}
BENCHMARK(BM_EventKernel)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
