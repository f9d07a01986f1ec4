// Unit tests for the N-device cluster and its BSP communication model
// (sim/cluster.h).
#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace bfsx::sim {
namespace {

InterconnectSpec test_link() {
  InterconnectSpec link;
  link.latency_us = 5.0;
  link.bandwidth_gbps = 10.0;
  return link;
}

TEST(Cluster, HomogeneousFactoryBuildsNDevices) {
  const Cluster c = Cluster::homogeneous(make_sandy_bridge_cpu(), 4);
  EXPECT_EQ(c.num_devices(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.device(i).name(), "SandyBridgeCPU");
  }
}

TEST(Cluster, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(Cluster({}, InterconnectSpec{}), std::invalid_argument);
  EXPECT_THROW(Cluster::homogeneous(make_sandy_bridge_cpu(), 0),
               std::invalid_argument);
  const Cluster c = Cluster::homogeneous(make_sandy_bridge_cpu(), 2);
  EXPECT_NO_THROW((void)c.device(1));
  EXPECT_THROW((void)c.device(2), std::out_of_range);
}

TEST(Cluster, HeterogeneousDevicesKeepTheirSpecs) {
  std::vector<Device> devices;
  devices.emplace_back(make_sandy_bridge_cpu());
  devices.emplace_back(make_kepler_gpu());
  const Cluster c{std::move(devices), test_link()};
  EXPECT_EQ(c.device(0).name(), "SandyBridgeCPU");
  EXPECT_EQ(c.device(1).name(), "KeplerK20xGPU");
}

TEST(ClusterExchange, SingleDeviceIsFree) {
  const Cluster c = Cluster::homogeneous(make_sandy_bridge_cpu(), 1,
                                         test_link());
  const std::vector<std::size_t> none{0};
  EXPECT_EQ(c.exchange_seconds(none), 0.0);
  EXPECT_EQ(c.allreduce_seconds(16), 0.0);
}

TEST(ClusterExchange, EmptyExchangeStillPaysLatency) {
  // An all-to-all posts a message per peer even when nothing is queued;
  // this is the floor every multi-device superstep pays.
  const Cluster c = Cluster::homogeneous(make_sandy_bridge_cpu(), 4,
                                         test_link());
  const std::vector<std::size_t> none(4, 0);
  EXPECT_DOUBLE_EQ(c.exchange_seconds(none), 3 * 5.0e-6);
  EXPECT_GT(c.allreduce_seconds(16), 0.0);
}

TEST(ClusterExchange, BandwidthTermGrowsWithBytes) {
  const Cluster c = Cluster::homogeneous(make_sandy_bridge_cpu(), 2,
                                         test_link());
  const std::vector<std::size_t> small{1'000, 1'000};
  const std::vector<std::size_t> big{1'000'000, 1'000'000};
  EXPECT_LT(c.exchange_seconds(small), c.exchange_seconds(big));
  // 2 devices: each sends 1MB and receives 1MB -> 2MB over 10 GB/s.
  EXPECT_NEAR(c.exchange_seconds(big), 5.0e-6 + 2.0e6 / 10e9, 1e-12);
}

TEST(ClusterExchange, SlowestDeviceGatesTheStep) {
  const Cluster c = Cluster::homogeneous(make_sandy_bridge_cpu(), 3,
                                         test_link());
  // Device 0 ships 3MB to device 1; everyone else idles. The busy pair
  // gates the superstep: latency + 3MB / 10 GB/s.
  std::vector<std::vector<std::size_t>> bytes(
      3, std::vector<std::size_t>(3, 0));
  bytes[0][1] = 3'000'000;
  EXPECT_NEAR(c.exchange_seconds(bytes), 2 * 5.0e-6 + 3.0e6 / 10e9, 1e-12);
}

TEST(ClusterExchange, MatrixShapeIsChecked) {
  const Cluster c = Cluster::homogeneous(make_sandy_bridge_cpu(), 2,
                                         test_link());
  EXPECT_THROW(
      (void)c.exchange_seconds(std::vector<std::vector<std::size_t>>{}),
               std::invalid_argument);
  const std::vector<std::size_t> wrong{1};
  EXPECT_THROW((void)c.exchange_seconds(wrong), std::invalid_argument);
}

TEST(Cluster, PaperClusterIsCpuBased) {
  const Cluster c = make_paper_cluster(8);
  EXPECT_EQ(c.num_devices(), 8u);
  EXPECT_EQ(c.device(0).name(), "SandyBridgeCPU");
  EXPECT_GT(c.interconnect().bandwidth_gbps, 0.0);
}

}  // namespace
}  // namespace bfsx::sim
