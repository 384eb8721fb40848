// Shared plumbing of the benchmark's tool binaries: flags, JSON output,
// the span tracer, the bench genome spec and the CLI-equivalent set-up
// steps.
// Header-only. The pipeline and service workloads are separate binaries:
// core/pipeline.h and service/types.h both define staratlas::SampleResult,
// so one program linking PipelineRunner and AlignmentService would merge
// the two types' inline members and break one of them.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "align/engine.h"
#include "common/error.h"
#include "genome/synthesizer.h"
#include "index/genome_index.h"
#include "io/fastq.h"
#include "io/gtf.h"
#include "sim/read_simulator.h"

namespace pb {

using namespace staratlas;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

inline double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

// ---------------------------------------------------------------------
// Command line: `perfbench_tools <command> --key value ...`.

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw InvalidArgument("expected --flag, got '" + key + "'");
      }
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) throw InvalidArgument("missing --" + key);
    return it->second;
  }
  u64 u(const std::string& key) const { return std::stoull(str(key)); }
  double d(const std::string& key) const { return std::stod(str(key)); }

 private:
  std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------------
// Minimal JSON emission (the tools only write JSON; run.py reads it).

inline std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Builds one JSON object field by field.
class Obj {
 public:
  Obj& add(const std::string& key, const std::string& raw_json) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + raw_json;
    return *this;
  }
  Obj& s(const std::string& key, const std::string& v) {
    return add(key, quote(v));
  }
  Obj& n(const std::string& key, double v) { return add(key, num(v)); }
  Obj& b(const std::string& key, bool v) {
    return add(key, v ? "true" : "false");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

inline std::string array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (usize i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + items[i];
  }
  return out + "]";
}

// ---------------------------------------------------------------------
// Spans: name, start, end, parent and the sample they belong to, kept in
// memory and written when the command ends. A span with `overlap` set ran
// concurrently with its parent's other children (the pipeline's dump
// producer thread): it reports busy time and is not subtracted from the
// parent's self time.

struct Span {
  std::string name;
  u64 id = 0;
  u64 parent = 0;
  i64 sample = -1;
  double start = 0.0;
  double end = 0.0;
  bool overlap = false;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records a span whose times the library reported.
  void add(const std::string& name, u64 parent, i64 sample, double start,
           double end, bool overlap = false) {
    if (!enabled_) return;
    std::lock_guard lock(mu_);
    spans_.push_back({name, ++next_id_, parent, sample, start, end, overlap});
  }
  /// Reserves an id for a span whose end is not known yet.
  u64 reserve() {
    if (!enabled_) return 0;
    std::lock_guard lock(mu_);
    return ++next_id_;
  }
  void close(u64 id, const std::string& name, u64 parent, i64 sample,
             double start, double end) {
    if (!enabled_) return;
    std::lock_guard lock(mu_);
    spans_.push_back({name, id, parent, sample, start, end, false});
  }

  std::string json() const {
    std::lock_guard lock(mu_);
    std::vector<std::string> items;
    items.reserve(spans_.size());
    for (const Span& s : spans_) {
      items.push_back(Obj()
                          .s("name", s.name)
                          .n("id", static_cast<double>(s.id))
                          .n("parent", static_cast<double>(s.parent))
                          .n("sample", static_cast<double>(s.sample))
                          .n("start", s.start)
                          .n("end", s.end)
                          .b("overlap", s.overlap)
                          .str());
    }
    return array(items);
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  u64 next_id_ = 0;
};

/// RAII span around one call into a module.
class Scoped {
 public:
  Scoped(Tracer& tracer, std::string name, u64 parent = 0, i64 sample = -1)
      : tracer_(tracer),
        name_(std::move(name)),
        parent_(parent),
        sample_(sample),
        id_(tracer.reserve()),
        start_(now_s()) {}
  ~Scoped() { tracer_.close(id_, name_, parent_, sample_, start_, now_s()); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  u64 id() const { return id_; }

 private:
  Tracer& tracer_;
  std::string name_;
  u64 parent_;
  i64 sample_;
  u64 id_;
  double start_;
};

// ---------------------------------------------------------------------
// The bench genome. 8 x 2 Mbp chromosomes give a 112 MiB v3 index, 14x a
// core's L2, so seed search misses the per-core caches as it does at the
// paper's 29.5 GiB instead of running from them.

inline GenomeSpec bench_spec() {
  GenomeSpec spec;
  spec.num_chromosomes = 8;
  spec.chromosome_length = 2'000'000;
  spec.genes_per_chromosome = 200;
  spec.seed = 2024;
  return spec;
}

struct World {
  GenomeSynthesizer synthesizer{bench_spec()};
  Assembly assembly = synthesizer.make_release111();
  std::shared_ptr<const ReadSimulator> simulator =
      std::make_shared<const ReadSimulator>(assembly, synthesizer.annotation(),
                                            synthesizer.repeat_regions());
};

/// The GTF resolved against the index's own contigs — what
/// `staratlas_cli align --gtf` and `serve --gtf` do.
inline Annotation annotation_from_index(const GenomeIndex& index,
                                        const std::string& gtf_path,
                                        Tracer& tracer, u64 parent,
                                        i64 sample = -1) {
  Assembly assembly;
  {
    Scoped span(tracer, "genome.assembly", parent, sample);
    std::vector<FastaRecord> records;
    for (const ContigMeta& contig : index.contigs()) {
      records.push_back({contig.name, "",
                         index.text_substr(contig.text_offset, contig.length)});
    }
    assembly = Assembly::from_fasta("cli", index.release(),
                                    index.assembly_type(), records);
  }
  std::vector<GtfFeature> features;
  {
    Scoped span(tracer, "io.gtf_parse", parent, sample);
    features = read_gtf_file(gtf_path);
  }
  Scoped span(tracer, "genome.annotation", parent, sample);
  return Annotation::from_gtf(features, assembly);
}

inline EngineConfig engine_config(usize threads) {
  EngineConfig config;
  config.num_threads = threads;
  config.quant_gene_counts = true;
  config.collect_junctions = true;
  return config;
}

inline double mean_read_length(const ReadSet& reads) {
  if (reads.empty()) return 0.0;
  u64 bases = 0;
  for (const auto& read : reads.reads) bases += read.sequence.size();
  return static_cast<double>(bases) / static_cast<double>(reads.size());
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw IoError("cannot write " + path);
}

inline std::string stats_json(const MappingStats& s) {
  return Obj()
      .n("processed", static_cast<double>(s.processed))
      .n("unique", static_cast<double>(s.unique))
      .n("multi", static_cast<double>(s.multi))
      .n("seeds", static_cast<double>(s.seeds_generated))
      .n("windows", static_cast<double>(s.windows_scored))
      .n("bases_compared", static_cast<double>(s.bases_compared))
      .str();
}

inline double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

/// Current resident set size from /proc/self/statm, in bytes.
inline double resident_bytes() {
  std::ifstream in("/proc/self/statm");
  u64 pages = 0;
  u64 resident = 0;
  in >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// Samples the resident set every 10 ms on its own thread and keeps the
/// maximum. The kernel's VmHWM is not used: clean index pages the kernel
/// reclaims under memory pressure leave it reading low.
class PeakRssSampler {
 public:
  PeakRssSampler()
      : thread_([this] {
          while (!stop_.load()) {
            const double now = resident_bytes();
            double seen = peak_.load();
            while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }) {}
  ~PeakRssSampler() {
    stop_.store(true);
    thread_.join();
  }
  PeakRssSampler(const PeakRssSampler&) = delete;
  PeakRssSampler& operator=(const PeakRssSampler&) = delete;

  double peak_bytes() const { return std::max(peak_.load(), resident_bytes()); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_{0.0};
  std::thread thread_;  ///< declared last: it reads the members above
};

inline std::vector<std::string> split(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(item);
  return out;
}

using Command = int (*)(const Flags&);

/// The main() of each tool binary: runs `argv[1]` from `commands` and
/// turns an escaping exception into exit code 2.
inline int dispatch(int argc, char** argv,
                    const std::map<std::string, Command>& commands) {
  try {
    const auto it = argc < 2 ? commands.end() : commands.find(argv[1]);
    if (it == commands.end()) {
      std::cerr << "usage: " << argv[0] << " <command> [--flag value ...]\n";
      return 1;
    }
    return it->second(Flags(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace pb
