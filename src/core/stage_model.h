// StageTimeModel: virtual-time costs of the four pipeline stages on a
// given instance type, at paper scale.
//
// Anchors (documented in EXPERIMENTS.md):
//  * STAR on release-111 index, r6a.4xlarge (16 vCPU): the paper's Fig 4
//    corpus averaged 155.8h / 1000 alignments ~ 9.35 min per alignment at
//    mean FASTQ size 15.9 GiB -> ~35.3 s per FASTQ GiB.
//  * The release-108 slowdown factor is MEASURED by this repository's
//    Fig 3 bench on the real (synthetic-genome) aligner and passed in via
//    `release_slowdown`.
//  * fasterq-dump and prefetch are I/O-dominated; rates below are typical
//    of sra-tools on EBS-backed instances.
#pragma once

#include "cloud/instance_types.h"
#include "common/units.h"
#include "common/vclock.h"

namespace staratlas {

/// The per-sample execution stages as the atlas simulator runs them. The
/// alignment stage is split at the early-stopping checkpoint so an
/// interruption (and the wasted-work accounting) can distinguish "died
/// before the decision" from "died burning post-checkpoint compute".
enum class SampleStage : u8 {
  kPrefetch = 0,      ///< download .sra (network transfer, retryable)
  kDump,              ///< fasterq-dump .sra -> FASTQ
  kAlignCheckpoint,   ///< STAR up to the early-stop checkpoint fraction
  kAlignRest,         ///< remainder of the alignment (skipped on stop)
  kPostprocess,       ///< count normalization + bookkeeping
  kUpload,            ///< S3 result upload (transfer, retryable)
};
inline constexpr usize kNumSampleStages = 6;

/// Short stable label ("prefetch", "dump", ...) for reports and the
/// fault injector's per-operation streams.
const char* stage_name(SampleStage stage);

/// True for stages that are network transfers (prefetch / S3 upload) —
/// the operations the FaultInjector perturbs and workers retry.
constexpr bool is_transfer_stage(SampleStage stage) {
  return stage == SampleStage::kPrefetch || stage == SampleStage::kUpload;
}

/// How a worker materializes the downloaded index at boot. kStream is the
/// stream (copy) load (read + copy every section through memory at
/// shm_load_gibps); kMmap is the v3 zero-copy attach, whose cost is the
/// stream cost divided by the measured `mmap_attach_speedup`
/// (bench_index_startup).
enum class IndexLoadPath : u8 { kStream = 0, kMmap };

struct StageTimeModel {
  /// STAR seconds per FASTQ GiB on a release-111 index at 16 vCPU.
  double align_secs_per_gib_r111_16vcpu = 35.3;
  /// Measured slowdown of the release-108 index relative to 111 (>12x in
  /// the paper; our Fig 3 bench measures its own value on real alignment).
  double release_slowdown_108 = 12.0;
  /// STAR throughput scales ~vcpus^alpha (sublinear beyond memory bw).
  double vcpu_scaling_alpha = 0.9;
  /// fasterq-dump seconds per output-FASTQ GiB at 16 vCPU.
  double dump_secs_per_gib_16vcpu = 8.0;
  /// NCBI-side download cap in Gbps (bottleneck below instance NICs).
  double sra_source_gbps_cap = 1.5;
  /// Loading the downloaded index into shared memory, GiB per second.
  double shm_load_gibps = 1.2;
  /// Measured cold-load advantage of the v3 mmap attach over the stream
  /// (copy) load (bench_index_startup cold_load.speedup; see
  /// EXPERIMENTS.md INIT). Applied only when index_init_time is asked for
  /// IndexLoadPath::kMmap.
  double mmap_attach_speedup = 20.0;
  /// DESeq2-stage + result-upload bookkeeping per sample.
  double postprocess_secs = 20.0;

  /// Stage 1: prefetch (download .sra object).
  VirtualDuration prefetch_time(ByteSize sra_bytes,
                                const InstanceType& type) const;
  /// Stage 2: fasterq-dump (.sra -> FASTQ).
  VirtualDuration dump_time(ByteSize fastq_bytes,
                            const InstanceType& type) const;
  /// Stage 3: STAR alignment of the full file.
  VirtualDuration align_time(ByteSize fastq_bytes, int genome_release,
                             const InstanceType& type) const;
  /// Stage 4: count normalization + upload bookkeeping.
  VirtualDuration postprocess_time() const;

  /// Boot-time index initialization: S3 download + index materialization.
  /// The default load path is the stream (copy) load (download + full
  /// copy); the mmap path divides the materialization term by
  /// mmap_attach_speedup — the download term is unchanged, so init stays
  /// download-dominated.
  VirtualDuration index_init_time(
      ByteSize index_bytes, const InstanceType& type,
      IndexLoadPath path = IndexLoadPath::kStream) const;

  /// Peak memory needed to run the aligner with a given index resident in
  /// shared memory (index + working set headroom).
  static ByteSize required_memory(ByteSize index_bytes);
};

}  // namespace staratlas
