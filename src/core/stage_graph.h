// Stage-graph pipeline executor model: a genomics pipeline as a DAG of
// resource-annotated stages (GenomeFlow-style), replacing the hardcoded
// prefetch->dump->align->postprocess chain.
//
// A StageGraph is a set of nodes — each with a cost function over a
// StageContext, resource hints (cores, RAM, bandwidth, spot-safety), and
// explicit data edges — validated for acyclicity and walked in a
// deterministic topological order. The paper's 4-stage alignment chain is
// one registered pipeline in the PipelineCatalog; a variant-calling-shaped
// pipeline (reusing the aligner stage's cost model) is a second, proving
// the simulator/scheduler needs no per-workload changes: AtlasSimulation,
// estimate_campaign and the campaign planner all consume the graph, never
// the chain.
//
// Determinism contract: for the registered "alignment" pipeline the
// deterministic topological order equals the historical SampleStage enum
// order and every node's cost function reproduces the pre-graph chain's
// StageTimeModel arithmetic expression-for-expression, so default-config
// simulations are bit-identical to that chain (asserted by
// tests/core/sim_golden_test.cc against captured pre-refactor outputs, and
// by tests/core/stage_graph_test.cc against a chain oracle).
#pragma once

#include <array>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/instance_types.h"
#include "common/units.h"
#include "common/vclock.h"
#include "core/stage_model.h"

namespace staratlas {

/// Node handle within one StageGraph (dense, insertion-ordered).
using StageId = u32;

/// What kind of work a stage does — drives fault injection (transfers are
/// the retryable operations) and the planner's bottleneck reasoning.
enum class StageKind : u8 {
  kTransfer = 0,  ///< network transfer (retryable, fault-injectable)
  kCompute,       ///< CPU-bound work that scales with vCPUs
  kFixed,         ///< fixed bookkeeping cost, instance-independent
};

/// Which legacy report bucket a stage's hours land in. The graph is
/// general; the atlas report still breaks out the paper's headline
/// prefetch/dump/align columns, and roles are how nodes opt into them.
enum class StageRole : u8 {
  kGeneric = 0,
  kPrefetch,
  kDump,
  kAlign,
};

/// Resource hints for the planner and (future) co-scheduling: how much of
/// the instance a stage actually drives.
struct StageResources {
  double cores = 1.0;           ///< fraction of instance vCPUs in use
  ByteSize ram = ByteSize::from_gib(2.0);  ///< beyond the resident index
  double bandwidth_gbps = 0.0;  ///< sustained network draw
  bool spot_safe = true;        ///< restartable without correctness loss
  bool checkpointable = false;  ///< partial progress survives a reclaim
};

/// Everything a stage cost function may depend on for one sample. Pure
/// data: cost functions must be deterministic functions of this context.
struct StageContext {
  ByteSize sra_bytes;
  ByteSize fastq_bytes;
  int genome_release = 111;
  const InstanceType* instance = nullptr;
  const StageTimeModel* model = nullptr;
  double checkpoint_fraction = 0.10;
  /// Thread cap for compute stages; 0 = all instance vCPUs. Non-zero
  /// values clamp the vCPU count the compute cost model sees (the
  /// planner's thread-count search dimension).
  u32 align_threads = 0;

  /// The instance as compute stages see it: vcpus clamped to
  /// align_threads when set. With align_threads == 0 this is a field-wise
  /// copy, so cost arithmetic is unchanged.
  InstanceType effective_instance() const;
};

/// Virtual-time cost of one stage for one sample. Must not branch on
/// early-stop state — skipping is the graph's job (skip_on_early_stop).
using StageCostFn = std::function<VirtualDuration(const StageContext&)>;

struct StageNode {
  std::string name;  ///< stable label (reports, fault-injector streams)
  StageKind kind = StageKind::kCompute;
  StageRole role = StageRole::kGeneric;
  StageResources resources;
  /// Zero-length when the sample early-stops (the post-checkpoint
  /// alignment remainder and everything downstream of the decision).
  bool skip_on_early_stop = false;
  StageCostFn cost;
};

/// One sample's planned per-node durations over a StageGraph. Node ids
/// index `durations`.
struct GraphPlan {
  std::vector<VirtualDuration> durations;
  bool stop_early = false;
  /// Full (un-stopped) alignment time, for saved-hours accounting.
  VirtualDuration align_full;
  /// Per-role duration sums (indexed by StageRole), accumulated in node
  /// id order so the alignment chain keeps the checkpoint-then-rest
  /// addition order of the pre-graph chain exactly.
  std::array<VirtualDuration, 4> role_totals{};

  VirtualDuration duration(StageId id) const { return durations[id]; }
  VirtualDuration role_total(StageRole role) const {
    return role_totals[static_cast<usize>(role)];
  }
  VirtualDuration align_actual() const { return role_total(StageRole::kAlign); }
  VirtualDuration total() const;
};

/// A validated DAG of stages. Construction order defines node ids;
/// `add_stage` only accepts already-existing dependencies (so a graph
/// built through it is acyclic by construction), while `add_edge` can
/// wire arbitrary edges afterwards — `validate()` then proves acyclicity
/// via Kahn's algorithm and caches the deterministic topological order
/// (smallest ready id first, which for a chain is insertion order).
class StageGraph {
 public:
  StageGraph() = default;
  explicit StageGraph(std::string name) : name_(std::move(name)) {}

  /// Appends a node depending on `deps` (each must already exist). Throws
  /// InvalidArgument on unknown deps or a missing cost function.
  StageId add_stage(StageNode node, std::vector<StageId> deps = {});

  /// Adds edge from -> to after the fact (diamonds, fan-in). May create a
  /// cycle; validate() rejects it.
  void add_edge(StageId from, StageId to);

  /// Full (un-stopped) alignment duration for one sample — the
  /// saved-hours denominator. Registered separately from the (possibly
  /// checkpoint-split) align nodes so the value is computed by ONE direct
  /// cost-model call, never reassembled from split parts (float identity).
  void set_align_full(StageCostFn fn) { align_full_ = std::move(fn); }

  /// Proves the graph is a non-empty DAG and caches the topological
  /// order. Throws InvalidArgument on an empty graph or a cycle.
  void validate();

  usize size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  const std::string& name() const { return name_; }
  const StageNode& node(StageId id) const { return nodes_[id]; }
  const std::vector<StageId>& deps(StageId id) const { return deps_[id]; }

  /// Deterministic topological order (validate() first).
  const std::vector<StageId>& topo_order() const;

  /// True when any node is skippable — i.e. the pipeline has an
  /// early-stop decision point at all.
  bool supports_early_stop() const;

  /// Per-node stage names in id order (report labels).
  std::vector<std::string> stage_names() const;

  /// Plans one sample: every node's cost over `ctx`, with
  /// skip-on-early-stop nodes zero-length when `ctx.stop_early` holds.
  GraphPlan plan(const StageContext& ctx, bool stop_early) const;

 private:
  std::string name_;
  std::vector<StageNode> nodes_;
  std::vector<std::vector<StageId>> deps_;
  StageCostFn align_full_;
  std::vector<StageId> topo_;
  bool validated_ = false;
};

/// Builds the paper's 4-stage alignment chain (6 nodes: the align stage is
/// split at the early-stop checkpoint, plus the zero-length upload node
/// where S3 faults land). Cost functions are StageTimeModel's stage
/// times, split at the checkpoint fraction.
StageGraph alignment_pipeline();

/// A variant-calling-shaped pipeline reusing the aligner cost stage:
/// prefetch -> dump -> align -> {sort_markdup, qc} -> call -> upload
/// (a diamond — qc and sort/markdup both consume the alignment, upload
/// fans both branches back in). No early-stop decision point.
StageGraph variant_calling_pipeline();

/// Registry of named pipelines. The simulator, estimator and planner look
/// workloads up here — adding a pipeline requires no scheduler changes.
class PipelineCatalog {
 public:
  using Builder = std::function<StageGraph()>;

  /// Process-wide catalog, pre-seeded with "alignment" and
  /// "variant_calling".
  static PipelineCatalog& instance();

  /// Registers (or replaces) a named pipeline.
  void register_pipeline(const std::string& name, Builder builder);

  /// Builds and validates a registered pipeline; throws InvalidArgument
  /// for unknown names.
  StageGraph build(const std::string& name) const;

  bool has(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  PipelineCatalog();
  mutable std::mutex mutex_;
  std::map<std::string, Builder> builders_;
};

}  // namespace staratlas
