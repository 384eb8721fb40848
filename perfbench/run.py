#!/usr/bin/env python3
"""End-to-end sample benchmark of staratlas over its three user surfaces.

    python3 perfbench/run.py --workload cli_bulk_sam --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload pipeline_atlas --steadiness 10

Workloads (one per surface, all on one bench genome whose ~118 MB v3 index
is far larger than a core's L2):

  cli_bulk_sam     `staratlas_cli align --gtf --threads 3` as a subprocess,
                   SAM on, 200k-read bulk samples in a closed loop with one
                   client.
  pipeline_atlas   PipelineRunner::process in process over an SRA catalog
                   of bulk and deeper single-cell accessions with early
                   stopping, 3 engine threads, then deseq2_normalize.
  service_tenants  `staratlas_cli serve --workers 3 --gtf` as a subprocess;
                   three tenants, one ServiceClient connection each, in a
                   closed loop: one heavy tenant with large samples, two
                   light tenants with small ones.

The script builds the surfaces from the checkout's sources (Release, into
.bench_build/), prepares inputs outside every timed window (genome, index,
FASTQ files and references cached under .bench_build/cache by spec, seed
and build; the pipeline's SRA containers are simulated in its process
before timing), checks every sample's artifacts against a 1-thread
in-process engine.execute reference, prints a report, and prints one JSON
object as the last line of stdout. The exit code is nonzero when any
artifact mismatches.

--trace 0 reports the end-to-end metrics. --trace 1 adds a traced run:
spans around the benchmark's own calls into each module (an in-process
replay of the same public calls for the two subprocess surfaces) give a
per-sample ledger of self times, its residual against the untraced wall,
and the tracing overhead; the JSON then holds the per-layer metrics.
--steadiness N repeats the untraced run over N seeds and prints each
end-to-end metric's median, IQR/median and two-halves drift against the
bounds in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(REPO, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
CACHE_DIR = os.path.join(BUILD_ROOT, "cache")
BINARIES = ["staratlas_cli", "perfbench_tools", "perfbench_pipeline",
            "perfbench_service"]

# Surface threads: 3 engine/worker threads plus the benchmark stay within a
# 4-vCPU machine.
SURFACE_THREADS = 3
GENOME_SPEC = "8x2Mbp-200genes-seed2024-r111-v3"

# cli_bulk_sam: two 200k-read bulk samples alternated; the probe sample
# times a CLI invocation's set-up (attach, annotation, engine, outputs).
CLI_SAMPLES = {"cli_0": 200_000, "cli_1": 200_000}
CLI_PROBE = ("cli_probe", 1_000)
CLI_SETUPS = 15
# pipeline_atlas: 8 accessions, 2 of them single-cell; fixed sizes so the
# work per pass does not depend on the seed.
PIPELINE_SAMPLES = 8
PIPELINE_ARGS = ["--samples", str(PIPELINE_SAMPLES), "--sc-fraction", "0.25",
                 "--bulk-reads", "80000", "--sc-reads", "250000"]
PIPELINE_SETUPS = 9
# service_tenants: heavy tenant alternates two 100k-read samples, the
# light tenants cycle four 15k-read samples (offset by one).
SERVICE_HEAVY = {"heavy_0": 100_000, "heavy_1": 100_000}
SERVICE_LIGHT = {"light_0": 15_000, "light_1": 15_000,
                 "light_2": 15_000, "light_3": 15_000}
SERVICE_SETUPS = 3

# StageTimeModel anchors (src/core/stage_model.h), seconds per FASTQ GiB.
MODEL_DUMP_S_PER_GIB = 8.0
MODEL_ALIGN_S_PER_GIB = 35.3

SUBPROCESS_TIMEOUT = 170
# Seeds whose inputs and references stay cached, per workload.
CACHED_SEEDS = 3


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_checked(cmd, timeout=SUBPROCESS_TIMEOUT, **kwargs):
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, timeout=timeout, check=False, **kwargs)
    if result.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {result.returncode}: "
                         f"{result.stderr.strip()[-2000:]}")
    return result.stdout


def run_json(cmd, timeout=SUBPROCESS_TIMEOUT, **kwargs):
    return json.loads(
        run_checked(cmd, timeout, **kwargs).strip().splitlines()[-1])


def binary(name):
    return os.path.join(BUILD_DIR, name)


# ---------------------------------------------------------------------------
# Build, environment stamp, inputs.

def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise BenchError("staratlas sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs], timeout=1500)


def build_hash():
    digest = hashlib.sha256()
    for name in BINARIES:
        with open(binary(name), "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()[:16]


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def environment_stamp():
    env = run_json([binary("perfbench_tools"), "env"])
    flags = env["cxx_flags"]
    if (env["build_type"] not in ("Release", "RelWithDebInfo")
            or "-fsanitize" in flags or "-O0" in flags):
        raise BenchError(f"refusing to report numbers from a "
                         f"{env['build_type']} build with flags '{flags}'")
    env["nproc"] = os.cpu_count()
    env["cpu_model"] = cpu_model()
    env["loadavg_start"] = os.getloadavg()[0]
    return env


def cached(kind, key, make, keep):
    """Returns the cache directory `kind-key`, creating it with make(tmp)
    once. Only the `keep` most recently used entries of a kind stay on
    disk, so runs over many seeds do not fill it."""
    path = os.path.join(CACHE_DIR, f"{kind}-{key}")
    if os.path.isdir(path):
        os.utime(path)
        return path
    tmp = f"{path}.tmp{os.getpid()}"
    os.makedirs(tmp)
    try:
        make(tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    os.rename(tmp, path)
    entries = [os.path.join(CACHE_DIR, e) for e in os.listdir(CACHE_DIR)
               if e.startswith(kind + "-") and ".tmp" not in e]
    entries.sort(key=os.path.getmtime, reverse=True)
    for stale in entries[keep:]:
        shutil.rmtree(stale, ignore_errors=True)
    return path


def genome_dir(build_id):
    return cached("genome", f"{GENOME_SPEC}-{build_id}", lambda out: run_json(
        [binary("perfbench_tools"), "prep-genome", "--out", out,
         "--threads", str(os.cpu_count() or 1)]), keep=1)


def sample_dir(kind, seed, sizes, build_id, genome, refs):
    """FASTQ inputs plus their 1-thread reference artifacts."""
    def make(out):
        spec = ",".join(f"{name}:{reads}" for name, reads in sizes.items())
        run_json([binary("perfbench_tools"), "prep-samples", "--out", out,
                  "--seed", str(seed), "--spec", spec])
        # Two reference processes at one engine thread each.
        names = list(refs)
        halves = [names[0::2], names[1::2]]
        tool = "perfbench_tools" if kind == "cli" else "perfbench_service"
        procs = [subprocess.Popen(
            [binary(tool), "prep-refs", "--genome", genome,
             "--samples", out, "--fastq", ",".join(half), "--out", out],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for half in halves if half]
        failures = []
        try:
            for proc in procs:
                stdout, stderr = proc.communicate(timeout=SUBPROCESS_TIMEOUT)
                if proc.returncode != 0:
                    failures.append(stderr.strip() or stdout.strip())
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if failures:
            raise BenchError("reference run failed: " + "; ".join(failures))
        if kind == "cli":
            # Only the digests of the CLI references are kept: the SAM
            # files are 75 MB each.
            for name in refs:
                prefix = os.path.join(out, name)
                digests = {suffix: artifact_digest(prefix + suffix)
                           for suffix in CLI_ARTIFACTS}
                with open(prefix + ".digests.json", "w") as f:
                    json.dump(digests, f)
                for suffix in CLI_ARTIFACTS:
                    os.remove(prefix + suffix)
    return cached(kind, f"{GENOME_SPEC}-seed{seed}-{build_id}", make,
                  keep=CACHED_SEEDS)


def warm_page_cache(paths):
    for path in paths:
        with open(path, "rb") as f:
            while f.read(1 << 24):
                pass


# ---------------------------------------------------------------------------
# Statistics.

def tail(values):
    """Highest of p99/p95/p90/p75/p50 with at least 10 samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return p, cuts[p - 1], n
    return None, None, n


def parse_final_log(text):
    fields = {}
    for line in text.splitlines():
        if "|" in line:
            label, value = line.split("|", 1)
            fields[label.strip()] = value.strip()
    return (int(fields["Reads processed"]),
            int(fields["Uniquely mapped reads number"])
            + int(fields["Number of reads mapped to multiple loci"]))


def strip_timing(text):
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.lstrip().startswith("Mapping speed"))


def proc_cpu_seconds(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    return 0.0


# ---------------------------------------------------------------------------
# Spans -> ledger.

def ledger_from_spans(spans):
    """Per span name: summed self time over the spans of samples, summed
    busy time of overlapped spans (which do not reduce their parent's self
    time), and the number of samples."""
    children = {}
    for span in spans:
        if not span["overlap"]:
            children.setdefault(span["parent"], 0.0)
            children[span["parent"]] += span["end"] - span["start"]
    self_s, busy_s = {}, {}
    roots = 0
    for span in spans:
        if span["sample"] < 0:
            continue
        duration = span["end"] - span["start"]
        if span["name"] == "sample":
            roots += 1
            continue
        if span["overlap"]:
            busy_s[span["name"]] = busy_s.get(span["name"], 0.0) + duration
            continue
        own = duration - children.get(span["id"], 0.0)
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + own
    return self_s, busy_s, roots


def span_total(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


# ---------------------------------------------------------------------------
# Workloads. Each returns a dict with the completed samples (wall, reads,
# ok, processed, mapped, tenant), window_s, cpu_s, peak_rss_mb, setup_s
# list, and workload extras used by the report and the ledger.

def cli_invoke(genome, fastq, prefix):
    """Runs one `staratlas_cli align`; returns (wall_s, cpu_s, maxrss_mb)."""
    cmd = [binary("staratlas_cli"), "align", "--index",
           os.path.join(genome, "genome.idx"), "--fastq", fastq, "--gtf",
           os.path.join(genome, "annotation.gtf"), "--threads",
           str(SURFACE_THREADS), "--out-prefix", prefix]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    with proc.stderr:
        stderr = proc.stderr.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"staratlas_cli align exited {proc.returncode}: "
                         f"{stderr.strip()}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6


CLI_ARTIFACTS = (".Log.final.out", ".SJ.out.tab", ".ReadsPerGene.out.tab",
                 ".sam")


def artifact_digest(path):
    """SHA-256 of an artifact; Log.final.out without its timing row."""
    with open(path, "rb") as f:
        data = f.read()
    if path.endswith(".Log.final.out"):
        data = strip_timing(data.decode()).encode()
    return hashlib.sha256(data).hexdigest()


def cli_check(prefix, ref_prefix):
    """Compares the CLI's artifacts with the reference's digests, timing
    rows stripped; returns (ok, processed, mapped, sam_mb)."""
    with open(ref_prefix + ".digests.json") as f:
        want = json.load(f)
    ok = all(artifact_digest(prefix + suffix) == want[suffix]
             for suffix in CLI_ARTIFACTS)
    with open(prefix + ".Log.final.out") as f:
        processed, mapped = parse_final_log(f.read())
    sam_mb = os.path.getsize(prefix + ".sam") / 1e6
    for suffix in CLI_ARTIFACTS:
        os.remove(prefix + suffix)
    return ok, processed, mapped, sam_mb


def workload_cli(seed, seconds, build_id, genome, trace, out_dir):
    sizes = dict(CLI_SAMPLES)
    sizes[CLI_PROBE[0]] = CLI_PROBE[1]
    samples_dir = sample_dir("cli", seed, sizes, build_id, genome,
                             refs=list(CLI_SAMPLES))
    names = list(CLI_SAMPLES)
    warm_page_cache([os.path.join(genome, "genome.idx"),
                     os.path.join(genome, "annotation.gtf")]
                    + [os.path.join(samples_dir, n + ".fastq")
                       for n in sizes])
    prefix = os.path.join(out_dir, "cli")
    setups = []
    for _ in range(CLI_SETUPS):
        wall, _, _ = cli_invoke(
            genome, os.path.join(samples_dir, CLI_PROBE[0] + ".fastq"), prefix)
        setups.append(wall)
        for suffix in CLI_ARTIFACTS:
            os.remove(prefix + suffix)

    # Closed loop, one client. The window is the sum of the invocations'
    # walls: the artifact check between invocations is not timed.
    samples, window, cpu, rss = [], 0.0, 0.0, 0.0
    budget = seconds if not trace else 0.0
    i = 0
    while window < budget or i < len(names):
        name = names[i % len(names)]
        wall, cpu_s, rss_mb = cli_invoke(
            genome, os.path.join(samples_dir, name + ".fastq"), prefix)
        ok, processed, mapped, sam_mb = cli_check(
            prefix, os.path.join(samples_dir, name))
        samples.append({"name": name, "tenant": "cli", "wall": wall,
                        "reads": CLI_SAMPLES[name], "ok": ok,
                        "processed": processed, "mapped": mapped,
                        "sam_mb": sam_mb})
        window += wall
        cpu += cpu_s
        rss = max(rss, rss_mb)
        i += 1
    result = {"samples": samples, "window_s": window, "cpu_s": cpu,
              "peak_rss_mb": rss, "setup_s": setups}
    if trace:
        result["replay"] = run_json(
            [binary("perfbench_tools"), "replay-cli", "--genome", genome,
             "--fastq", ",".join(os.path.join(samples_dir, n + ".fastq")
                                 for n in names),
             "--out", out_dir, "--threads", str(SURFACE_THREADS)])
        for suffix in CLI_ARTIFACTS:
            os.remove(os.path.join(out_dir, "replay" + suffix))
    return result


def workload_pipeline(seed, seconds, build_id, genome, trace, out_dir):
    del out_dir
    common = ["--genome", genome, "--seed", str(seed), "--threads",
              str(SURFACE_THREADS)] + PIPELINE_ARGS
    refs = cached("pipeline", f"{GENOME_SPEC}-seed{seed}-{build_id}",
                  lambda out: run_json(
                      [binary("perfbench_pipeline"), "pipeline-ref", "--out",
                       os.path.join(out, "reference.txt")] + common),
                  keep=CACHED_SEEDS)
    warm_page_cache([os.path.join(genome, "genome.idx"),
                     os.path.join(genome, "annotation.gtf")])
    data = run_json([binary("perfbench_pipeline"), "pipeline", "--ref",
                     os.path.join(refs, "reference.txt"), "--seconds",
                     str(seconds), "--setups", str(PIPELINE_SETUPS),
                     "--trace", str(int(trace))] + common)
    samples = [{"name": s["name"], "tenant": "pipeline",
                "wall": s["end"] - s["start"], "reads": s["reads"],
                "ok": s["ok"], "processed": s["stats"]["processed"],
                "mapped": s["stats"]["unique"] + s["stats"]["multi"],
                "raw": s} for s in data["samples"]]
    return {"samples": samples, "window_s": data["window_s"],
            "cpu_s": data["cpu_s"], "peak_rss_mb": data["peak_rss_mb"],
            "setup_s": [s["setup_s"] for s in data["setups"]],
            "pipeline": data}


def service_request(path, header, payload=b""):
    """One request on a fresh connection; returns (ok, body)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(path)
        sock.sendall(header.encode() + payload)
        stream = sock.makefile("rb")
        status = stream.readline().decode().split()
        if not status or status[0] != "OK":
            return False, " ".join(status).encode()
        return True, stream.read(int(status[1]))


def wait_ready(path, proc, deadline):
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise BenchError(f"serve exited {proc.returncode} before ready")
        try:
            if service_request(path, "PING\n")[0]:
                return
        except OSError:
            pass
        time.sleep(0.002)
    raise BenchError("serve did not become ready")


def stop_service(proc, path):
    """DRAINs the daemon and waits for it to exit (killing it if it hangs)."""
    if proc.poll() is None:
        try:
            service_request(path, "DRAIN\n")
        except OSError:
            pass
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def parse_stats(text):
    stats = {"tenants": {}}
    for line in text.splitlines():
        parts = line.split("\t")
        if parts[0] == "tenant":
            fields = dict(p.split("=", 1) for p in parts[2:])
            stats["tenants"][parts[1]] = {k: float(v) for k, v in fields.items()}
        elif len(parts) == 2:
            stats[parts[0]] = float(parts[1])
    return stats


def workload_service(seed, seconds, build_id, genome, trace, out_dir):
    sizes = {**SERVICE_HEAVY, **SERVICE_LIGHT}
    samples_dir = sample_dir("service", seed, sizes, build_id, genome,
                             refs=list(sizes))
    warm_page_cache([os.path.join(genome, "genome.idx"),
                     os.path.join(genome, "annotation.gtf")]
                    + [os.path.join(samples_dir, n + ".fastq") for n in sizes])
    refs = {}
    for name in sizes:
        with open(os.path.join(samples_dir, name + ".service.out")) as f:
            refs[name] = parse_final_log(f.read())
    with open(os.path.join(samples_dir, "light_0.fastq"), "rb") as f:
        warmup_payload = f.read()
    # The daemon and the clients run in out_dir and name the socket
    # relatively: a Unix socket path must fit in 108 bytes.
    path = os.path.relpath(os.path.join(out_dir, "serve.sock"))
    cmd = [binary("staratlas_cli"), "serve", "--index",
           os.path.join(genome, "genome.idx"), "--socket", "serve.sock", "--gtf",
           os.path.join(genome, "annotation.gtf"), "--workers",
           str(SURFACE_THREADS)]
    # Set-up: launch to ready (PING answered) plus one warm-up sample,
    # repeated; the last daemon serves the timed window.
    setups = []
    proc = None
    try:
        for attempt in range(SERVICE_SETUPS):
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=out_dir,
                                    stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)
            wait_ready(path, proc, start + 60)
            ok, _ = service_request(
                path, f"SUBMIT warmup light_0 {len(warmup_payload)}\n",
                warmup_payload)
            if not ok:
                raise BenchError("warm-up submission failed")
            setups.append(time.perf_counter() - start)
            if attempt + 1 < SERVICE_SETUPS:
                stop_service(proc, path)
                proc = None

        cpu0 = proc_cpu_seconds(proc.pid)
        window = seconds if not trace else seconds / 2
        data = run_json([binary("perfbench_service"), "clients", "--socket",
                         "serve.sock", "--seconds", str(window), "--samples",
                         samples_dir, "--refs", samples_dir, "--heavy",
                         ",".join(SERVICE_HEAVY), "--light",
                         ",".join(SERVICE_LIGHT)], cwd=out_dir)
        cpu = proc_cpu_seconds(proc.pid) - cpu0
        rss = proc_peak_rss_mb(proc.pid)
    finally:
        if proc is not None:
            stop_service(proc, path)
    samples = []
    for s in data["samples"]:
        if not s["name"]:
            raise BenchError(f"tenant {s['tenant']} failed: {s['error']}")
        processed, mapped = refs[s["name"]]
        samples.append({"name": s["name"], "tenant": s["tenant"],
                        "wall": s["end"] - s["start"], "reads": s["reads"],
                        "ok": s["ok"], "processed": processed,
                        "mapped": mapped, "error": s["error"]})
    result = {"samples": samples, "window_s": data["window_s"], "cpu_s": cpu,
              "peak_rss_mb": rss, "setup_s": setups,
              "stats": parse_stats(data["stats"])}
    if trace:
        result["replay"] = run_json(
            [binary("perfbench_service"), "replay-service", "--genome",
             genome, "--samples", samples_dir, "--seconds", str(seconds / 4),
             "--workers", str(SURFACE_THREADS), "--heavy",
             ",".join(SERVICE_HEAVY), "--light", ",".join(SERVICE_LIGHT)])
    return result


WORKLOADS = {
    "cli_bulk_sam": workload_cli,
    "pipeline_atlas": workload_pipeline,
    "service_tenants": workload_service,
}


# ---------------------------------------------------------------------------
# Metrics.

def end_to_end(result):
    samples = result["samples"]
    walls = [s["wall"] for s in samples]
    processed = sum(s["processed"] for s in samples)
    return {
        "reads_per_s": (sum(s["reads"] for s in samples) / result["window_s"],
                        "1/s"),
        "sample_s_p50": (statistics.median(walls), "s"),
        "cpu_s_per_sample": (result["cpu_s"] / len(samples), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "ok_frac": (sum(s["ok"] for s in samples) / len(samples), "frac"),
        "mapped_pct": (100.0 * sum(s["mapped"] for s in samples)
                       / max(processed, 1), "%"),
    }


def tails(result):
    """The tail rows of the report: (label, percentile, value, count)."""
    rows = []
    p, value, n = tail([s["wall"] for s in result["samples"]])
    rows.append(("sample_s_tail", p, value, n))
    light = [s["wall"] for s in result["samples"]
             if s["tenant"].startswith("light")]
    if light:
        p, value, n = tail(light)
        rows.append(("light_tenant_s_tail", p, value, n))
    return rows


LEDGER_LAYERS = [
    "index.attach", "io.fastq_parse", "io.gtf_parse", "genome.assembly",
    "genome.annotation", "align.engine_setup", "align.execute", "align.sam",
    "align.tsv", "align.teardown", "sra.prefetch", "core.process",
    "quant.deseq2", "service.submit",
]


def per_layer(workload, result):
    """The traced run's ledger: per-sample self time of each layer, its
    share, the residual against the untraced wall and the tracing
    overhead, plus each layer's work counters."""
    samples = result["samples"]
    n_untraced = len(samples)
    untraced_wall = sum(s["wall"] for s in samples) / n_untraced
    extra = {}
    if workload == "cli_bulk_sam":
        replay = result["replay"]
        spans = replay["spans"]
        rows = replay["samples"]
        traced = sum(r["traced_s"] for r in rows) / len(rows)
        untraced_replay = sum(r["untraced_s"] for r in rows) / len(rows)
        stats = [r["stats"] for r in rows]
        reads = sum(r["stats"]["processed"] for r in rows)
        execute = span_total(spans, "align.execute")
        extra["io.fastq_mb"] = sum(r["fastq_mb"] for r in rows) / len(rows)
        extra["align.sam_mb"] = sum(r["sam_mb"] for r in rows) / len(rows)
        extra["index.resident_mb"] = rows[0]["index_resident_mb"]
        attach = span_total(spans, "index.attach") / len(rows)
        engine_rate = reads / execute
    elif workload == "pipeline_atlas":
        data = result["pipeline"]
        spans = data["spans"]
        window_spans = [s for s in spans if s["sample"] >= 0]
        traced_rows = data["traced_samples"]
        traced = sum(r["end"] - r["start"] for r in traced_rows) / len(
            traced_rows)
        untraced_replay = untraced_wall
        stats = [r["stats"] for r in traced_rows]
        reads = sum(r["stats"]["processed"] for r in traced_rows)
        engine_rate = reads / sum(r["align_s"] for r in traced_rows)
        attach = statistics.median(s["attach_s"] for s in data["setups"])
        extra["index.resident_mb"] = data["index_resident_mb"]
        extra["sra.dump_mb"] = sum(r["fastq_mb"] for r in traced_rows) / len(
            traced_rows)
        passes = len(traced_rows) / PIPELINE_SAMPLES
        extra["core.early_stop_aborted"] = sum(
            r["early_stopped"] for r in traced_rows) / passes
        skipped = sum(r["reads"] - r["stats"]["processed"]
                      for r in traced_rows if r["early_stopped"])
        extra["core.early_stop_skipped_reads_pct"] = 100.0 * skipped / sum(
            r["reads"] for r in traced_rows)
        # DESeq2 runs once per window: its share is spread over the samples.
        spans = window_spans + [
            dict(s, sample=0, parent=-1) for s in spans
            if s["name"] == "quant.deseq2"]
    else:
        replay = result["replay"]
        spans = replay["spans"]
        rows = replay["traced"]
        traced = sum(r["wall_s"] for r in rows) / len(rows)
        untraced_rows = replay["untraced"]
        untraced_replay = sum(r["wall_s"] for r in untraced_rows) / len(
            untraced_rows)
        stats = [r["stats"] for r in rows]
        reads = sum(r["stats"]["processed"] for r in rows)
        engine_rate = reads / replay["traced_window_s"]
        attach = replay["attach_s"]
        extra["index.resident_mb"] = replay["index_resident_mb"]
        extra["io.fastq_mb"] = sum(r["fastq_mb"] for r in rows) / len(rows)
        st = result["stats"]
        extra["service.chunks_per_sample"] = (st["chunks_dispatched"]
                                              / st["samples_completed"])
        extra["service.queue_high_water"] = st.get("queue_high_water", 0.0)
        extra["service.rejected"] = sum(t["rejected"]
                                        for t in st["tenants"].values())
    self_s, busy_s, roots = ledger_from_spans(spans)
    per_sample = {k: v / roots for k, v in self_s.items()}
    ledger_sum = sum(per_sample.values())
    metrics = {
        "index.attach_s": (attach, "s"),
        "index.resident_mb": (extra.get("index.resident_mb", 0.0), "MB"),
        "io.fastq_mb": (extra.get("io.fastq_mb", 0.0), "MB"),
        "sra.dump_mb": (extra.get("sra.dump_mb", 0.0), "MB"),
        "sra.dump_busy_pct": (100.0 * busy_s.get("sra.dump", 0.0) / roots
                              / traced, "%"),
        "align.execute_s": (per_sample.get("align.execute", 0.0)
                            + per_sample.get("service.submit", 0.0), "s"),
        "align.engine_reads_per_s": (engine_rate, "1/s"),
        "align.tsv_s": (per_sample.get("align.tsv", 0.0), "s"),
        "align.sam_mb": (extra.get("align.sam_mb", 0.0), "MB"),
        "core.early_stop_aborted": (extra.get("core.early_stop_aborted", 0),
                                    "count"),
        "core.early_stop_skipped_reads_pct": (
            extra.get("core.early_stop_skipped_reads_pct", 0.0), "%"),
        "service.chunks_per_sample": (
            extra.get("service.chunks_per_sample", 0.0), "count"),
        "service.queue_high_water": (
            extra.get("service.queue_high_water", 0.0), "count"),
        "service.rejected": (extra.get("service.rejected", 0.0), "count"),
        "ledger.residual_pct": (100.0 * (untraced_wall - ledger_sum)
                                / untraced_wall, "%"),
        "trace.overhead_pct": (100.0 * (traced - untraced_replay)
                               / untraced_replay, "%"),
    }
    for counter, key in (("seeds_per_read", "seeds"),
                         ("windows_per_read", "windows"),
                         ("bases_compared_per_read", "bases_compared")):
        metrics["align." + counter] = (
            sum(s[key] for s in stats) / max(reads, 1), "count")
    for layer in LEDGER_LAYERS:
        metrics[layer + "_pct"] = (
            100.0 * per_sample.get(layer, 0.0) / untraced_wall, "%")
    ledger = {"per_sample_s": per_sample, "ledger_sum_s": ledger_sum,
              "untraced_wall_s": untraced_wall, "traced_wall_s": traced,
              "untraced_replay_s": untraced_replay,
              "busy_s": {k: v / roots for k, v in busy_s.items()},
              "samples": roots}
    return metrics, ledger


# ---------------------------------------------------------------------------
# Report.

# The ledger rows plus every per-layer time and rate by name, including
# those of layers that only some surfaces have (the JSON keeps the metrics
# that exist on every workload).
def layer_report(workload, result, metrics, ledger):
    per = ledger["per_sample_s"]
    wall = ledger["untraced_wall_s"]
    rows = []

    def row(name, value, unit, note=""):
        shown = "n/a" if value is None else f"{value:.6g}"
        rows.append(f"  {name:<36} {shown:>14} {unit:<6} {note}")

    for layer in LEDGER_LAYERS:
        if layer in per:
            row(layer + " self", per[layer], "s",
                f"{100.0 * per[layer] / wall:.1f}% of untraced sample wall")
    for name, busy in ledger["busy_s"].items():
        row(name + " busy", busy, "s", "overlapped with align.execute")
    row("ledger sum", ledger["ledger_sum_s"], "s")
    row("untraced sample wall", wall, "s")
    row("residual", wall - ledger["ledger_sum_s"], "s",
        "untraced wall minus ledger")
    row("tracing overhead",
        ledger["traced_wall_s"] - ledger["untraced_replay_s"], "s",
        "traced minus untraced replay wall")

    def layer(span, rate=None, mb_metric=None):
        if span not in per:
            row(span + "_s", None, "s", "not on this surface")
            return
        row(span + "_s", per[span], "s")
        if rate:
            row(rate, metrics[mb_metric][0] / per[span], "MB/s")

    layer("io.fastq_parse", "io.fastq_mb_per_s", "io.fastq_mb")
    layer("align.sam", "align.sam_mb_per_s", "align.sam_mb")
    if workload == "pipeline_atlas":
        traced = result["pipeline"]["traced_samples"]
        dump_s = sum(r["dump_s"] for r in traced) / len(traced)
        row("sra.dump_s", dump_s, "s", "busy time of the dump producer")
        row("sra.dump_mb_per_s", metrics["sra.dump_mb"][0] / dump_s, "MB/s")
        row("quant.deseq2_s", result["pipeline"]["traced_deseq2_s"], "s",
            "once per window")
    else:
        row("sra.dump_s", None, "s", "not on this surface")
        row("quant.deseq2_s", None, "s", "not on this surface")
    layer("sra.prefetch")
    layer("core.process")
    if workload == "service_tenants":
        st = result["stats"]
        row("service.server_p50_s", statistics.median(
            r["server_s"] for r in result["replay"]["traced"]), "s",
            "in-process replay")
        p50s = [t["p50_ms"] / 1e3 for name, t in st["tenants"].items()
                if name != "warmup"]
        daemon = statistics.median(p50s)
        client = statistics.median(s["wall"] for s in result["samples"])
        row("service.chunks_dispatched", st["chunks_dispatched"], "count",
            "STATS, daemon lifetime")
        row("service.daemon_p50_s", daemon, "s", "STATS, median of tenants")
        row("service.rpc_overhead_s", client - daemon, "s",
            "client p50 minus daemon p50")
    else:
        row("service.server_p50_s", None, "s", "not on this surface")
    return rows


def pipeline_ratio_rows(result):
    done = [s["raw"] for s in result["samples"] if not s["raw"]["early_stopped"]]
    gib = sum(s["fastq_mb"] for s in done) * 1e6 / 2**30
    dump = sum(s["dump_s"] for s in done) / gib
    align = sum(s["align_s"] for s in done) / gib
    return [f"  dump:align s/GiB measured {dump:.3f}:{align:.3f} = "
            f"{dump / align:.3f}   StageTimeModel {MODEL_DUMP_S_PER_GIB}:"
            f"{MODEL_ALIGN_S_PER_GIB} = "
            f"{MODEL_DUMP_S_PER_GIB / MODEL_ALIGN_S_PER_GIB:.3f}"]


def report(workload, env, result, metrics, layers, ledger, seed):
    lines = [f"== {workload} seed {seed}",
             f"  env: nproc {env['nproc']}, {env['cpu_model']}, load "
             f"{env['loadavg_start']:.2f} -> {os.getloadavg()[0]:.2f}, "
             f"{env['build_type']} ({env['cxx_flags'].strip()}), simd "
             f"{env['simd_active']} (detected {env['simd_detected']}), "
             f"packed_lcp {env['packed_lcp']}"]
    samples = result["samples"]
    lines.append(f"  {len(samples)} samples in {result['window_s']:.3f} s, "
                 f"{sum(not s['ok'] for s in samples)} failed")
    lines.append("  end-to-end metrics (untraced"
                 + (" samples of the traced run):" if layers else " run):"))
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<36} {value:>14.6g} {unit}")
    for name, p, value, n in tails(result):
        if p is None:
            lines.append(f"  {name:<36} {'n/a':>14} s      "
                         f"{n} samples support no tail percentile")
        else:
            lines.append(f"  {name:<36} {value:>14.6g} s      "
                         f"p{p} over {n} samples")
    if workload == "pipeline_atlas":
        lines += pipeline_ratio_rows(result)
    if layers is not None:
        lines.append("  per-layer metrics (traced run):")
        for name, (value, unit) in layers.items():
            lines.append(f"  {name:<36} {value:>14.6g} {unit}")
        lines.append("  ledger (per sample, traced run):")
        lines += layer_report(workload, result, layers, ledger)
    for s in samples:
        if not s["ok"]:
            lines.append(f"  MISMATCH {s['tenant']} {s['name']} "
                         f"{s.get('error', '')}")
    print("\n".join(lines), flush=True)


def run_once(workload, seed, seconds, trace, build_id, genome):
    out_dir = os.path.join(BUILD_ROOT, "run", f"{workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        result = WORKLOADS[workload](seed, seconds, build_id, genome, trace,
                                     out_dir)
    finally:
        for name in os.listdir(out_dir):
            os.remove(os.path.join(out_dir, name))
        os.rmdir(out_dir)
    if not result["samples"]:
        raise BenchError("no sample completed")
    return result


def steadiness(workload, seed, runs, seconds, build_id, genome):
    """Repeats the workload over `runs` seeds and prints, per end-to-end
    metric, the median, IQR/median and whether the two halves' medians
    agree within the declared bound."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for i in range(runs):
        metrics = end_to_end(run_once(workload, seed + i, seconds, False,
                                      build_id, genome))
        for name, (value, _) in metrics.items():
            values.setdefault(name, []).append(value)
        log(f"steadiness {workload} run {i + 1}/{runs} done")
    print(f"== steadiness {workload}: {runs} runs, seeds {seed}..{seed + runs - 1}")
    unsteady = []
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        half = len(vals) // 2
        first, second = statistics.median(vals[:half]), statistics.median(vals[half:])
        drift = abs(second - first) / first if first else 0.0
        bound = bounds[name]
        agree = drift <= bound
        print(f"  {name:<20} median {median:12.6g}  iqr/median {spread:7.4f}  "
              f"halves {first:.6g}/{second:.6g} drift {drift:7.4f}  bound "
              f"{bound}  {'ok' if agree else 'DISAGREE'}"
              f"{'' if spread < bound / 3 else '  (spread >= bound/3)'}")
        print("      runs: " + " ".join(f"{v:.6g}" for v in vals))
        if spread > bound or not agree:
            unsteady.append(name)
    print("  above bound: " + (", ".join(unsteady) if unsteady else "none"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS",
                        help="repeat over RUNS seeds and print spreads")
    args = parser.parse_args()
    try:
        build()
        env = environment_stamp()
        build_id = build_hash()
        genome = genome_dir(build_id)
        if args.steadiness:
            steadiness(args.workload, args.seed, args.steadiness,
                       args.seconds, build_id, genome)
            return 0
        result = run_once(args.workload, args.seed, args.seconds,
                          bool(args.trace), build_id, genome)
        metrics = end_to_end(result)
        layers, ledger = (per_layer(args.workload, result) if args.trace
                          else (None, None))
    except (BenchError, OSError, subprocess.SubprocessError) as error:
        log(f"perfbench: {error}")
        return 2
    report(args.workload, env, result, metrics, layers, ledger, args.seed)
    failed = sum(not s["ok"] for s in result["samples"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["samples"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in (layers or metrics).items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
