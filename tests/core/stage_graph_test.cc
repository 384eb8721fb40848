// Stage-graph executor: topological validity, cycle rejection, exact
// equivalence of the alignment pipeline's GraphPlan with the legacy
// fixed-chain stage plan (kept here as an oracle), the variant-calling
// pipeline running through the unmodified scheduler, and waste-partition
// exactness under spot reclaims for arbitrary DAGs.
#include "core/stage_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/error.h"
#include "core/atlas_sim.h"

namespace staratlas {
namespace {

std::vector<SraSample> small_catalog(usize n = 40, u64 seed = 5) {
  CatalogSpec spec;
  spec.num_samples = n;
  spec.single_cell_fraction = 0.10;
  spec.seed = seed;
  return make_catalog(spec);
}

AtlasConfig base_config() {
  AtlasConfig config;
  config.use_release(111);
  config.asg.max_size = 8;
  config.seed = 77;
  return config;
}

// The fixed prefetch->dump->align->postprocess chain the stage graph
// replaced, over StageTimeModel's public stage times. Alignment is split
// at `checkpoint_fraction`; with `stop_early` the post-checkpoint
// remainder and the postprocess stage are zero-length, and the upload
// stage is always zero-length.
struct LegacyStagePlan {
  std::array<VirtualDuration, kNumSampleStages> durations{};
  VirtualDuration align_full;

  VirtualDuration align_actual() const {
    return durations[static_cast<usize>(SampleStage::kAlignCheckpoint)] +
           durations[static_cast<usize>(SampleStage::kAlignRest)];
  }
  VirtualDuration total() const {
    VirtualDuration sum;
    for (const VirtualDuration& d : durations) sum += d;
    return sum;
  }
};

LegacyStagePlan legacy_plan_sample(const StageTimeModel& model,
                                   ByteSize sra_bytes, ByteSize fastq_bytes,
                                   int genome_release,
                                   const InstanceType& type,
                                   double checkpoint_fraction,
                                   bool stop_early) {
  LegacyStagePlan plan;
  plan.align_full = model.align_time(fastq_bytes, genome_release, type);
  auto set = [&plan](SampleStage stage, VirtualDuration d) {
    plan.durations[static_cast<usize>(stage)] = d;
  };
  set(SampleStage::kPrefetch, model.prefetch_time(sra_bytes, type));
  set(SampleStage::kDump, model.dump_time(fastq_bytes, type));
  set(SampleStage::kAlignCheckpoint, plan.align_full * checkpoint_fraction);
  set(SampleStage::kAlignRest,
      stop_early ? VirtualDuration::zero()
                 : plan.align_full * (1.0 - checkpoint_fraction));
  set(SampleStage::kPostprocess,
      stop_early ? VirtualDuration::zero() : model.postprocess_time());
  set(SampleStage::kUpload, VirtualDuration::zero());
  return plan;
}

StageCostFn fixed_cost(double secs) {
  return [secs](const StageContext&) { return VirtualDuration::seconds(secs); };
}

TEST(StageGraph, TopoOrderRespectsDependencies) {
  for (const std::string& name : PipelineCatalog::instance().names()) {
    StageGraph graph = PipelineCatalog::instance().build(name);
    const std::vector<StageId>& topo = graph.topo_order();
    ASSERT_EQ(topo.size(), graph.size()) << name;
    std::vector<usize> position(graph.size());
    for (usize i = 0; i < topo.size(); ++i) position[topo[i]] = i;
    for (StageId id = 0; id < graph.size(); ++id) {
      for (StageId dep : graph.deps(id)) {
        EXPECT_LT(position[dep], position[id])
            << name << ": " << graph.node(id).name << " scheduled before "
            << "its dependency " << graph.node(dep).name;
      }
    }
  }
}

TEST(StageGraph, CatalogKnowsBothPipelines) {
  auto& catalog = PipelineCatalog::instance();
  EXPECT_TRUE(catalog.has("alignment"));
  EXPECT_TRUE(catalog.has("variant_calling"));
  EXPECT_FALSE(catalog.has("nonexistent"));
  EXPECT_THROW(catalog.build("nonexistent"), InvalidArgument);
  EXPECT_TRUE(PipelineCatalog::instance().build("alignment")
                  .supports_early_stop());
  EXPECT_FALSE(PipelineCatalog::instance().build("variant_calling")
                   .supports_early_stop());
}

TEST(StageGraph, AddStageRejectsBadDeps) {
  StageGraph graph("bad");
  StageNode node;
  node.name = "a";
  node.cost = fixed_cost(1.0);
  const StageId a = graph.add_stage(node);
  node.name = "b";
  // Forward/self dependencies cannot exist yet: add_stage is acyclic by
  // construction.
  EXPECT_THROW(graph.add_stage(node, {a + 1}), InvalidArgument);
  StageNode no_cost;
  no_cost.name = "c";
  EXPECT_THROW(graph.add_stage(no_cost, {a}), InvalidArgument);
}

TEST(StageGraph, ValidateRejectsCycles) {
  StageGraph graph("cyclic");
  StageNode node;
  node.cost = fixed_cost(1.0);
  node.name = "a";
  const StageId a = graph.add_stage(node);
  node.name = "b";
  const StageId b = graph.add_stage(node, {a});
  node.name = "c";
  const StageId c = graph.add_stage(node, {b});
  graph.add_edge(c, a);  // closes the loop
  EXPECT_THROW(graph.validate(), InvalidArgument);

  StageGraph empty("empty");
  EXPECT_THROW(empty.validate(), InvalidArgument);
}

TEST(StageGraph, DiamondDagPlansEveryNodeOnce) {
  // a -> {b, c} -> d: a genuine DAG (not a chain) through plan().
  StageGraph graph("diamond");
  StageNode node;
  node.cost = fixed_cost(10.0);
  node.name = "a";
  const StageId a = graph.add_stage(node);
  node.name = "b";
  node.cost = fixed_cost(20.0);
  const StageId b = graph.add_stage(node, {a});
  node.name = "c";
  node.cost = fixed_cost(30.0);
  const StageId c = graph.add_stage(node, {a});
  node.name = "d";
  node.cost = fixed_cost(40.0);
  graph.add_stage(node, {b, c});
  graph.validate();

  const InstanceType& type = instance_type("r6a.4xlarge");
  const StageTimeModel model;
  StageContext ctx;
  ctx.instance = &type;
  ctx.model = &model;
  const GraphPlan plan = graph.plan(ctx, /*stop_early=*/false);
  EXPECT_DOUBLE_EQ(plan.total().secs(), 100.0);
  EXPECT_EQ(graph.topo_order().front(), a);
}

// The graph-planned alignment pipeline must reproduce the legacy
// chain's arithmetic stage for stage, bit for bit — this is the
// equivalence on which the golden sim replays rest.
TEST(StageGraph, AlignmentPlanMatchesLegacyStagePlanExactly) {
  const AtlasConfig config = base_config();
  const InstanceType& type = instance_type(config.instance_type);
  StageGraph graph = PipelineCatalog::instance().build("alignment");
  ASSERT_EQ(graph.size(), kNumSampleStages);

  for (const SraSample& sample : small_catalog(30)) {
    for (bool stop_early : {false, true}) {
      const LegacyStagePlan legacy = legacy_plan_sample(
          config.stages, sample.sra_bytes, sample.fastq_bytes,
          config.genome_release, type, config.early_stop.checkpoint_fraction,
          stop_early);
      const GraphPlan plan = graph.plan(
          stage_context_for(config, sample, type), stop_early);
      for (usize s = 0; s < kNumSampleStages; ++s) {
        EXPECT_DOUBLE_EQ(plan.duration(s).secs(),
                         legacy.durations[s].secs())
            << sample.accession << " stage " << graph.node(s).name
            << " stop_early=" << stop_early;
      }
      EXPECT_DOUBLE_EQ(plan.align_full.secs(), legacy.align_full.secs());
      EXPECT_DOUBLE_EQ(plan.align_actual().secs(),
                       legacy.align_actual().secs());
      EXPECT_DOUBLE_EQ(plan.total().secs(), legacy.total().secs());
    }
  }
}

TEST(StageGraph, AlignmentStageNamesMatchLegacyLabels) {
  StageGraph graph = PipelineCatalog::instance().build("alignment");
  const std::vector<std::string> names = graph.stage_names();
  ASSERT_EQ(names.size(), kNumSampleStages);
  for (usize s = 0; s < kNumSampleStages; ++s) {
    EXPECT_EQ(names[s], stage_name(static_cast<SampleStage>(s)));
  }
}

// The second pipeline runs through the UNMODIFIED scheduler: same sim,
// same queue/fleet/fault machinery, just a different graph.
TEST(StageGraph, VariantCallingRunsThroughUnmodifiedScheduler) {
  const auto catalog = small_catalog();
  AtlasConfig config = base_config();
  config.pipeline = "variant_calling";
  AtlasSimulation sim(catalog, config);
  const AtlasReport report = sim.run();
  EXPECT_EQ(report.samples_completed + report.samples_rejected_late,
            catalog.size());
  // No decision point in this graph: nothing can early-stop.
  EXPECT_EQ(report.samples_early_stopped, 0u);
  EXPECT_EQ(report.samples_dead_lettered, 0u);
  EXPECT_GT(report.makespan_hours, 0.0);
  EXPECT_GT(report.total_cost_usd, 0.0);
  // Per-stage report columns follow the graph, not the legacy enum.
  EXPECT_EQ(report.stage_names.size(), sim.graph().size());
  EXPECT_EQ(report.wasted_hours_stage.size(), sim.graph().size());
  EXPECT_NE(std::find(report.stage_names.begin(), report.stage_names.end(),
                      "call_variants"),
            report.stage_names.end());
}

double total_stage_waste(const AtlasReport& report) {
  double total = 0.0;
  for (double hours : report.wasted_hours_stage) total += hours;
  return total;
}

// Waste partition exactness: per-stage waste must sum to the interrupted
// + transfer totals, for BOTH pipeline shapes, under heavy spot churn.
TEST(StageGraph, WastePartitionExactUnderSpotReclaims) {
  for (const char* pipeline : {"alignment", "variant_calling"}) {
    AtlasConfig config = base_config();
    config.pipeline = pipeline;
    config.spot = true;
    config.mean_time_to_interruption = VirtualDuration::hours(1.0);
    config.faults.enabled = true;
    config.faults.transfer_failure_rate = 0.10;
    config.faults.seed = 99;
    const AtlasReport report =
        AtlasSimulation(small_catalog(60), config).run();
    ASSERT_GT(report.interruptions, 0u) << pipeline;
    EXPECT_GT(total_stage_waste(report), 0.0) << pipeline;
    EXPECT_NEAR(total_stage_waste(report),
                report.wasted_hours_interrupted + report.wasted_hours_transfer,
                1e-9)
        << pipeline;
  }
}

}  // namespace
}  // namespace staratlas
