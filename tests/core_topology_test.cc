// TopologySpec parsing/materialization, ClusterSpec annotations, and the
// rack-regime SpeedupTable (DESIGN.md sec. 14).

#include "core/types.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/allocation.h"
#include "core/speedup_table.h"

namespace pollux {
namespace {

TEST(GpuTypeTest, ScalesAndNamesRoundTrip) {
  EXPECT_DOUBLE_EQ(GpuTypeScale(GpuType::kT4), 1.0);  // Baseline generation.
  EXPECT_GT(GpuTypeScale(GpuType::kA100), GpuTypeScale(GpuType::kV100));
  EXPECT_GT(GpuTypeScale(GpuType::kV100), GpuTypeScale(GpuType::kP100));
  for (int i = 0; i < kNumGpuTypes; ++i) {
    const GpuType type = static_cast<GpuType>(i);
    GpuType parsed = GpuType::kT4;
    ASSERT_TRUE(GpuTypeFromName(GpuTypeName(type), &parsed)) << GpuTypeName(type);
    EXPECT_EQ(parsed, type);
  }
  GpuType parsed = GpuType::kT4;
  EXPECT_TRUE(GpuTypeFromName("A100", &parsed));  // Case-insensitive.
  EXPECT_EQ(parsed, GpuType::kA100);
  EXPECT_FALSE(GpuTypeFromName("h100", &parsed));
}

TEST(ParseTopologyTest, AcceptsRxN) {
  TopologySpec spec;
  std::string error;
  ASSERT_TRUE(ParseTopology("4x8", 4, &spec, &error)) << error;
  EXPECT_EQ(spec.num_racks, 4);
  EXPECT_EQ(spec.nodes_per_rack, 8);
  EXPECT_EQ(spec.gpus_per_node, 4);
  EXPECT_EQ(spec.NumNodes(), 32);
  EXPECT_EQ(spec.TotalGpus(), 128);
}

TEST(ParseTopologyTest, RejectsMalformedShapes) {
  TopologySpec spec;
  for (const char* text : {"", "4", "x8", "4x", "0x4", "4x0", "-1x4", "4x8x2", "axb", "4 x 8"}) {
    std::string error;
    EXPECT_FALSE(ParseTopology(text, 4, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  std::string error;
  EXPECT_FALSE(ParseTopology("4x8", 0, &spec, &error));  // Needs positive GPUs.
}

TEST(ParseGpuMixTest, LargestRemainderContiguousBlocks) {
  TopologySpec spec;
  spec.num_racks = 1;
  spec.nodes_per_rack = 4;
  spec.gpus_per_node = 4;
  std::string error;
  ASSERT_TRUE(ParseGpuMix("a100:0.25,t4:0.75", &spec, &error)) << error;
  EXPECT_EQ(spec.node_gpu_type,
            (std::vector<GpuType>{GpuType::kA100, GpuType::kT4, GpuType::kT4, GpuType::kT4}));

  // Equal remainders break ties in listed order (stable sort).
  spec.nodes_per_rack = 3;
  ASSERT_TRUE(ParseGpuMix("v100:0.5,t4:0.5", &spec, &error)) << error;
  EXPECT_EQ(spec.node_gpu_type,
            (std::vector<GpuType>{GpuType::kV100, GpuType::kV100, GpuType::kT4}));
}

TEST(ParseGpuMixTest, RejectsMalformedMixes) {
  TopologySpec spec;
  spec.num_racks = 2;
  spec.nodes_per_rack = 2;
  spec.gpus_per_node = 4;
  for (const char* text :
       {"", "t4", "h100:1.0", "t4:0", "t4:-0.5", "t4:1.5", "t4:0.5", "a100:0.6,t4:0.6",
        "t4:abc"}) {
    std::string error;
    EXPECT_FALSE(ParseGpuMix(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  TopologySpec empty;
  empty.num_racks = 0;
  std::string error;
  EXPECT_FALSE(ParseGpuMix("t4:1.0", &empty, &error));
}

TEST(TopologySpecTest, FlatHomogeneousCarriesNoAnnotations) {
  const TopologySpec spec = TopologySpec::FlatHomogeneous(8, 4);
  EXPECT_TRUE(spec.IsFlat());
  const ClusterSpec cluster = spec.ToCluster();
  EXPECT_FALSE(cluster.HasTopology());
  EXPECT_EQ(cluster.NumRacks(), 1);
  EXPECT_EQ(cluster.NumNodes(), 8);
  EXPECT_EQ(cluster.TotalGpus(), 32);
  EXPECT_DOUBLE_EQ(cluster.rack_link_factor, 1.0);
  EXPECT_DOUBLE_EQ(cluster.GpuScaleOf(0), 1.0);
}

TEST(TopologySpecTest, AnnotatedClusterMaterialization) {
  TopologySpec spec;
  spec.num_racks = 2;
  spec.nodes_per_rack = 2;
  spec.gpus_per_node = 4;
  spec.rack_link_factor = 2.5;
  std::string error;
  ASSERT_TRUE(ParseGpuMix("a100:0.5,t4:0.5", &spec, &error)) << error;
  EXPECT_FALSE(spec.IsFlat());

  const ClusterSpec cluster = spec.ToCluster();
  ASSERT_TRUE(cluster.HasTopology());
  EXPECT_EQ(cluster.NumRacks(), 2);
  EXPECT_EQ(cluster.rack_of_node, (std::vector<int>{0, 0, 1, 1}));
  EXPECT_EQ(cluster.RackOf(3), 1);
  EXPECT_DOUBLE_EQ(cluster.GpuScaleOf(0), GpuTypeScale(GpuType::kA100));
  EXPECT_DOUBLE_EQ(cluster.GpuScaleOf(3), 1.0);
  EXPECT_DOUBLE_EQ(cluster.rack_link_factor, 2.5);

  const ClusterSpec stripped = cluster.WithoutTopology();
  EXPECT_FALSE(stripped.HasTopology());
  EXPECT_EQ(stripped.gpus_per_node, cluster.gpus_per_node);
  EXPECT_EQ(stripped.NumRacks(), 1);
  EXPECT_DOUBLE_EQ(stripped.GpuScaleOf(0), 1.0);
}

TEST(TopologySpecTest, SingleRackMixedGenerationsIsNotFlat) {
  TopologySpec spec;
  spec.num_racks = 1;
  spec.nodes_per_rack = 4;
  spec.gpus_per_node = 4;
  std::string error;
  ASSERT_TRUE(ParseGpuMix("v100:0.5,t4:0.5", &spec, &error)) << error;
  EXPECT_FALSE(spec.IsFlat());
  const ClusterSpec cluster = spec.ToCluster();
  EXPECT_TRUE(cluster.HasTopology());
  EXPECT_EQ(cluster.NumRacks(), 1);  // Heterogeneity without a rack tier.
}

TEST(AllocationRackSummaryTest, RackPlacementAndMinScale) {
  TopologySpec spec;
  spec.num_racks = 2;
  spec.nodes_per_rack = 2;
  spec.gpus_per_node = 4;
  std::string error;
  ASSERT_TRUE(ParseGpuMix("a100:0.5,t4:0.5", &spec, &error)) << error;
  const ClusterSpec cluster = spec.ToCluster();

  AllocationMatrix alloc(2, 4);
  alloc.at(0, 0) = 4;  // Rack 0 (A100).
  alloc.at(0, 2) = 4;  // Rack 1 (T4): cross-rack gang paced by the T4s.
  alloc.at(1, 1) = 2;  // Single A100 node.

  const RackPlacement gang = alloc.JobRackPlacement(0, cluster);
  EXPECT_EQ(gang.num_gpus, 8);
  EXPECT_EQ(gang.num_nodes, 2);
  EXPECT_EQ(gang.num_racks, 2);
  EXPECT_DOUBLE_EQ(alloc.JobMinGpuScale(0, cluster), 1.0);

  const RackPlacement local = alloc.JobRackPlacement(1, cluster);
  EXPECT_EQ(local.num_racks, 1);
  EXPECT_DOUBLE_EQ(alloc.JobMinGpuScale(1, cluster), GpuTypeScale(GpuType::kA100));

  // Flat clusters report a single rack; Flatten() round-trips to (K, N).
  const ClusterSpec flat = ClusterSpec::Homogeneous(4, 4);
  const RackPlacement on_flat = alloc.JobRackPlacement(0, flat);
  EXPECT_EQ(on_flat.num_racks, 1);
  EXPECT_EQ(on_flat.Flatten(), alloc.JobPlacement(0));
  EXPECT_DOUBLE_EQ(alloc.JobMinGpuScale(0, flat), 1.0);
}

GoodputModel MakeModel() {
  ThroughputParams params;
  params.alpha_grad = 0.04;
  params.beta_grad = 3e-4;
  params.alpha_sync_local = 0.02;
  params.beta_sync_local = 0.001;
  params.alpha_sync_node = 0.09;
  params.beta_sync_node = 0.005;
  params.gamma = 2.0;
  return GoodputModel(params, 1000.0, 128);
}

TEST(SpeedupTableRackRegimeTest, CrossRackNeverBeatsInRack) {
  const GoodputModel model = MakeModel();
  const BatchLimits limits{128, 32768, 1024};
  const SpeedupTable table(model, limits, 32, /*rack_link_factor=*/2.5);
  ASSERT_TRUE(table.has_rack_regime());
  for (int k : {4, 8, 16, 32}) {
    const double co_located = table.At(RackPlacement{k, 1, 1});
    const double cross_node = table.At(RackPlacement{k, 2, 1});
    const double cross_rack = table.At(RackPlacement{k, 2, 2});
    EXPECT_GE(co_located, cross_node - 1e-9) << k;
    EXPECT_GE(cross_node, cross_rack - 1e-9) << k;
    EXPECT_GT(cross_rack, 0.0) << k;
    // The node regime is untouched by the rack extension.
    EXPECT_DOUBLE_EQ(cross_node, table.At(k, 2)) << k;
  }
}

TEST(SpeedupTableRackRegimeTest, FactorOneKeepsFlatTable) {
  const GoodputModel model = MakeModel();
  const BatchLimits limits{128, 32768, 1024};
  const SpeedupTable flat(model, limits, 16);
  const SpeedupTable unity(model, limits, 16, /*rack_link_factor=*/1.0);
  EXPECT_FALSE(flat.has_rack_regime());
  EXPECT_FALSE(unity.has_rack_regime());
  for (int k = 1; k <= 16; ++k) {
    // Without a rack regime, cross-rack lookups fall back to the node regime.
    EXPECT_DOUBLE_EQ(flat.At(RackPlacement{k, 2, 2}), flat.At(k, 2)) << k;
    EXPECT_DOUBLE_EQ(unity.At(k, 2), flat.At(k, 2)) << k;
  }
}

}  // namespace
}  // namespace pollux
