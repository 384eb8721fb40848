#include "core/stage_model.h"

#include <algorithm>
#include <cmath>

#include "cloud/s3.h"
#include "common/error.h"

namespace staratlas {

namespace {
double vcpu_speedup(double vcpus, double alpha) {
  // Throughput relative to the 16-vCPU reference: (v/16)^alpha.
  return std::pow(vcpus / 16.0, alpha);
}
}  // namespace

VirtualDuration StageTimeModel::prefetch_time(ByteSize sra_bytes,
                                              const InstanceType& type) const {
  const double gbps = std::min(sra_source_gbps_cap, type.network_gbps);
  return S3Bucket::transfer_time(sra_bytes, gbps);
}

VirtualDuration StageTimeModel::dump_time(ByteSize fastq_bytes,
                                          const InstanceType& type) const {
  const double speedup =
      vcpu_speedup(static_cast<double>(type.vcpus), vcpu_scaling_alpha);
  return VirtualDuration::seconds(dump_secs_per_gib_16vcpu *
                                  fastq_bytes.gib() / speedup);
}

VirtualDuration StageTimeModel::align_time(ByteSize fastq_bytes,
                                           int genome_release,
                                           const InstanceType& type) const {
  STARATLAS_CHECK(genome_release == 108 || genome_release == 111);
  const double slowdown =
      genome_release == 108 ? release_slowdown_108 : 1.0;
  const double speedup =
      vcpu_speedup(static_cast<double>(type.vcpus), vcpu_scaling_alpha);
  return VirtualDuration::seconds(align_secs_per_gib_r111_16vcpu * slowdown *
                                  fastq_bytes.gib() / speedup);
}

VirtualDuration StageTimeModel::postprocess_time() const {
  return VirtualDuration::seconds(postprocess_secs);
}

VirtualDuration StageTimeModel::index_init_time(ByteSize index_bytes,
                                                const InstanceType& type,
                                                IndexLoadPath path) const {
  STARATLAS_CHECK(mmap_attach_speedup >= 1.0);
  const VirtualDuration download =
      S3Bucket::transfer_time(index_bytes, type.network_gbps);
  double load_secs = index_bytes.gib() / shm_load_gibps;
  if (path == IndexLoadPath::kMmap) load_secs /= mmap_attach_speedup;
  return download + VirtualDuration::seconds(load_secs);
}

const char* stage_name(SampleStage stage) {
  switch (stage) {
    case SampleStage::kPrefetch: return "prefetch";
    case SampleStage::kDump: return "dump";
    case SampleStage::kAlignCheckpoint: return "align_ckpt";
    case SampleStage::kAlignRest: return "align_rest";
    case SampleStage::kPostprocess: return "postprocess";
    case SampleStage::kUpload: return "upload";
  }
  return "unknown";
}

ByteSize StageTimeModel::required_memory(ByteSize index_bytes) {
  // Index resident in shared memory + STAR working set + OS headroom.
  return index_bytes + ByteSize::from_gib(6.0);
}

}  // namespace staratlas
