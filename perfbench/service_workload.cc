// The service_tenants workload's in-process parts: reference artifacts,
// the three closed-loop ServiceClient tenants, and the traced in-process
// replay of the daemon's SUBMIT path.

#include <algorithm>
#include <atomic>
#include <exception>
#include <iostream>
#include <thread>

#include "align/run_request.h"
#include "common.h"
#include "service/artifacts.h"
#include "service/rpc.h"
#include "service/service.h"

namespace pb {

// prep-refs: P.service.out, the render_sample_artifacts of
// a 1-thread in-process engine.execute over the same reads — what the
// daemon's SUBMIT body must equal.
int cmd_prep_service_refs(const Flags& flags) {
  const std::string genome = flags.str("genome");
  Tracer off(false);
  const GenomeIndex index = GenomeIndex::load_file(genome + "/genome.idx");
  const Annotation annotation =
      annotation_from_index(index, genome + "/annotation.gtf", off, 0);
  AlignmentEngine engine(index, &annotation, engine_config(1));
  for (const std::string& item : split(flags.str("fastq"))) {
    const ReadSet reads = make_read_set(
        read_fastq_file(flags.str("samples") + "/" + item + ".fastq"));
    EngineRunRequest request;
    request.reads = &reads;
    const AlignmentRun run = engine.execute(request);
    SampleResult result;
    result.total_reads = reads.size();
    result.mean_read_length = mean_read_length(reads);
    result.stats = run.stats;
    result.gene_counts = run.gene_counts;
    result.junctions = run.junctions;
    write_file(flags.str("out") + "/" + item + ".service.out",
               render_sample_artifacts(result, index, &annotation));
  }
  std::cout << "{}\n";
  return 0;
}

// ---------------------------------------------------------------------
// clients: three tenants, each one ServiceClient connection in a closed
// loop until --seconds have passed: `heavy` cycles the large samples,
// `light1`/`light2` the small ones. Bodies are compared with the
// references from prep-refs after the window.

struct ClientSample {
  std::string tenant;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  u64 reads = 0;
  bool ok = false;
  std::string error;
};

u64 count_records(const std::string& fastq) {
  return static_cast<u64>(std::count(fastq.begin(), fastq.end(), '\n')) / 4;
}

int cmd_clients(const Flags& flags) {
  const std::string socket = flags.str("socket");
  const double seconds = flags.d("seconds");
  const std::string samples_dir = flags.str("samples");
  const std::string refs_dir = flags.str("refs");
  struct Input {
    std::string name;
    std::string fastq;
    std::string expect;
    u64 reads = 0;
  };
  auto load = [&](const std::string& list) {
    std::vector<Input> inputs;
    for (const std::string& name : split(list)) {
      Input input{name, read_file(samples_dir + "/" + name + ".fastq"),
                  read_file(refs_dir + "/" + name + ".service.out"), 0};
      input.reads = count_records(input.fastq);
      inputs.push_back(std::move(input));
    }
    return inputs;
  };
  const std::vector<Input> heavy = load(flags.str("heavy"));
  const std::vector<Input> light = load(flags.str("light"));
  struct Tenant {
    std::string name;
    const std::vector<Input>* inputs;
    usize offset;
  };
  const std::vector<Tenant> tenants = {
      {"heavy", &heavy, 0}, {"light1", &light, 0}, {"light2", &light, 1}};

  std::mutex mu;
  std::vector<ClientSample> samples;
  const double window_start = now_s();
  std::vector<std::thread> threads;
  for (const Tenant& tenant : tenants) {
    threads.emplace_back([&, tenant] {
      std::vector<ClientSample> local;
      try {
        ServiceClient client(socket);
        for (usize i = tenant.offset;; ++i) {
          if (now_s() - window_start >= seconds) break;
          const Input& input = (*tenant.inputs)[i % tenant.inputs->size()];
          ClientSample sample;
          sample.tenant = tenant.name;
          sample.name = input.name;
          sample.reads = input.reads;
          sample.start = now_s();
          const auto response = client.submit(tenant.name, input.name,
                                              input.fastq);
          sample.end = now_s();
          sample.ok = response.ok && response.body == input.expect;
          if (!response.ok) {
            sample.error = response.error_code + ": " + response.message;
          } else if (!sample.ok) {
            sample.error = "artifact mismatch";
          }
          local.push_back(std::move(sample));
        }
      } catch (const std::exception& e) {
        ClientSample failed;
        failed.tenant = tenant.name;
        failed.error = e.what();
        local.push_back(std::move(failed));
      }
      std::lock_guard lock(mu);
      for (auto& s : local) samples.push_back(std::move(s));
    });
  }
  for (auto& thread : threads) thread.join();
  const double window_s = now_s() - window_start;

  ServiceClient stats_client(socket);
  const auto stats = stats_client.stats();
  std::vector<std::string> rows;
  for (const ClientSample& s : samples) {
    rows.push_back(Obj()
                       .s("tenant", s.tenant)
                       .s("name", s.name)
                       .n("start", s.start)
                       .n("end", s.end)
                       .n("reads", static_cast<double>(s.reads))
                       .b("ok", s.ok)
                       .s("error", s.error)
                       .str());
  }
  std::cout << Obj()
                   .add("samples", array(rows))
                   .n("window_s", window_s)
                   .s("stats", stats.ok ? stats.body : "")
                   .str()
            << "\n";
  return 0;
}

// ---------------------------------------------------------------------
// replay-service: the daemon's SUBMIT path in process — payload parse
// (read_fastq + make_read_set, as the RPC server does), admission and
// chunk scheduling in AlignmentService, render_sample_artifacts — driven
// by the same three closed-loop tenants, first traced then untraced for
// --seconds each.

int cmd_replay_service(const Flags& flags) {
  const std::string genome = flags.str("genome");
  const std::string samples_dir = flags.str("samples");
  const double seconds = flags.d("seconds");
  Tracer tracer(true);
  Tracer off(false);

  double attach_s = 0.0;
  std::shared_ptr<const GenomeIndex> index;
  {
    Scoped span(tracer, "index.attach");
    const double t0 = now_s();
    index = std::make_shared<const GenomeIndex>(
        GenomeIndex::load_file(genome + "/genome.idx"));
    attach_s = now_s() - t0;
  }
  const Annotation annotation =
      annotation_from_index(*index, genome + "/annotation.gtf", tracer, 0);
  ServiceConfig config;
  config.engine = engine_config(flags.u("workers"));
  std::unique_ptr<AlignmentService> service;
  {
    Scoped span(tracer, "service.setup");
    service = std::make_unique<AlignmentService>(index, &annotation, config);
  }

  struct Input {
    std::string name;
    std::string fastq;
  };
  auto load = [&](const std::string& list) {
    std::vector<Input> inputs;
    for (const std::string& name : split(list)) {
      inputs.push_back({name, read_file(samples_dir + "/" + name + ".fastq")});
    }
    return inputs;
  };
  const std::vector<Input> heavy = load(flags.str("heavy"));
  const std::vector<Input> light = load(flags.str("light"));

  std::atomic<i64> next_id{0};
  auto drive = [&](Tracer& tr, std::vector<std::string>& rows) -> double {
    std::mutex mu;
    std::exception_ptr failure;
    const double start = now_s();
    std::vector<std::thread> threads;
    const std::vector<std::pair<std::string, const std::vector<Input>*>>
        tenants = {{"heavy", &heavy}, {"light1", &light}, {"light2", &light}};
    for (usize t = 0; t < tenants.size(); ++t) {
      threads.emplace_back([&, t] {
        const auto& [tenant, inputs] = tenants[t];
        try {
          for (usize i = t == 2 ? 1 : 0; now_s() - start < seconds; ++i) {
            const Input& input = (*inputs)[i % inputs->size()];
            const i64 id = next_id++;
            const double t0 = now_s();
            Scoped root(tr, "sample", 0, id);
            SampleSubmission submission;
            submission.tenant = tenant;
            submission.name = input.name;
            {
              Scoped span(tr, "io.fastq_parse", root.id(), id);
              std::istringstream fastq(input.fastq);
              submission.reads = make_read_set(read_fastq(fastq));
            }
            SampleResult result;
            {
              Scoped span(tr, "service.submit", root.id(), id);
              result = service->submit_and_wait(std::move(submission));
            }
            {
              Scoped span(tr, "align.tsv", root.id(), id);
              render_sample_artifacts(result, *index, &annotation);
            }
            const double t1 = now_s();
            std::lock_guard lock(mu);
            rows.push_back(Obj()
                               .s("tenant", tenant)
                               .n("wall_s", t1 - t0)
                               .n("fastq_mb", input.fastq.size() / 1e6)
                               .n("server_s", result.latency_secs)
                               .add("stats", stats_json(result.stats))
                               .str());
          }
        } catch (...) {
          std::lock_guard lock(mu);
          failure = std::current_exception();
        }
      });
    }
    for (auto& thread : threads) thread.join();
    if (failure) std::rethrow_exception(failure);
    return now_s() - start;
  };
  std::vector<std::string> traced_rows;
  std::vector<std::string> untraced_rows;
  const double traced_window = drive(tracer, traced_rows);
  drive(off, untraced_rows);

  service->drain();
  std::cout << Obj()
                   .add("traced", array(traced_rows))
                   .add("untraced", array(untraced_rows))
                   .n("traced_window_s", traced_window)
                   .n("attach_s", attach_s)
                   .n("index_resident_mb",
                      index->stats().total().bytes() / 1e6)
                   .add("spans", tracer.json())
                   .str()
            << "\n";
  return 0;
}

}  // namespace pb

int main(int argc, char** argv) {
  return pb::dispatch(argc, argv,
                      {{"prep-refs", pb::cmd_prep_service_refs},
                       {"clients", pb::cmd_clients},
                       {"replay-service", pb::cmd_replay_service}});
}
