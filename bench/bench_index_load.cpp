// INIT — §III.A: the smaller release-111 index "reduces the initial
// overhead associated with downloading and loading index to shared
// memory".
//
// Two measurements:
//  1. Virtual, paper scale: S3 download + shared-memory load time per
//     instance type for the 85 GiB vs 29.5 GiB index objects, on both
//     load paths (stream vs the v3 mmap attach, which shrinks the load
//     term by StageTimeModel::mmap_attach_speedup).
//  2. Real, synthetic scale: build/save wall times plus the two real
//     load paths (v3 stream, v3 mmap attach) of this repo's actual index
//     files for both releases.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "core/report.h"
#include "core/stage_model.h"

using namespace staratlas;
using namespace staratlas::bench;

namespace {

double time_call(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  const StageTimeModel model;

  std::cout << "INIT part 1: modeled instance-boot index initialization\n";
  Table table({"instance", "NIC", "init r108 (85 GiB)", "init r111 (29.5 GiB)",
               "r111 mmap", "speedup", "mmap speedup"});
  for (const char* name :
       {"r6a.2xlarge", "r6a.4xlarge", "r6a.8xlarge", "m6a.8xlarge"}) {
    const InstanceType& type = instance_type(name);
    const VirtualDuration init108 =
        model.index_init_time(ByteSize::from_gib(kPaperIndexGib108), type);
    const VirtualDuration init111 =
        model.index_init_time(ByteSize::from_gib(kPaperIndexGib111), type);
    const VirtualDuration init111_mmap = model.index_init_time(
        ByteSize::from_gib(kPaperIndexGib111), type, IndexLoadPath::kMmap);
    table.add_row({name, strf("%.2f Gbps", type.network_gbps), init108.str(),
                   init111.str(), init111_mmap.str(),
                   strf("%.2fx", init108 / init111),
                   strf("%.2fx", init108 / init111_mmap)});
  }
  table.print(std::cout);
  std::cout << "(85/29.5 = 2.88x less data to move per instance boot; the\n"
            << " mmap column additionally divides the memory-load term by "
            << strf("%.0fx", model.mmap_attach_speedup) << ")\n\n";

  std::cout << "INIT part 2: real synthetic-index build/save/load timings\n";
  const BenchWorld& w = bench_world();
  Table real({"release", "index size", "build (s)", "save (s)",
              "v3 stream (s)", "v3 mmap (s)"});
  for (const auto& [label, assembly] :
       {std::pair{"108", &w.r108}, std::pair{"111", &w.r111}}) {
    GenomeIndex built;
    const double build_secs =
        time_call([&] { built = GenomeIndex::build(*assembly); });
    const std::string v3_path =
        std::string("/tmp/staratlas_init_v3_") + label + ".bin";
    const double save_secs =
        time_call([&] { built.save_file(v3_path, GenomeIndex::kVersionV3); });
    GenomeIndex loaded;
    const double v3_stream_secs = time_call(
        [&] { loaded = GenomeIndex::load_file(v3_path, IndexLoadMode::kStream); });
    const double v3_mmap_secs =
        MappedFile::supported()
            ? time_call([&] {
                loaded = GenomeIndex::load_file(v3_path, IndexLoadMode::kMmap);
              })
            : 0.0;
    real.add_row({label, built.stats().total().str(), strf("%.3f", build_secs),
                  strf("%.3f", save_secs), strf("%.3f", v3_stream_secs),
                  strf("%.6f", v3_mmap_secs)});
    std::remove(v3_path.c_str());
  }
  real.print(std::cout);
  return 0;
}
