#include "hydra/hydra_node.hpp"

#include <gtest/gtest.h>

#include "../testing/fidelity.hpp"

namespace ipfs::hydra {
namespace {

using common::kSecond;
using ipfs::testing::FidelityNet;

TEST(HydraNode, HeadsHaveDistinctSpreadIdentities) {
  sim::Simulation sim;
  net::Network network(sim, common::Rng(1));
  HydraConfig config;
  config.head_count = 4;
  HydraNode hydra(sim, network, common::Rng(2), p2p::IpAddress::v4(42), config);
  ASSERT_EQ(hydra.head_count(), 4u);
  // Heads land in different sixteenths of the keyspace.
  std::set<std::uint64_t> top_nibbles;
  for (std::size_t i = 0; i < 4; ++i) {
    top_nibbles.insert(hydra.head(i).id().prefix64() >> 60);
  }
  EXPECT_GE(top_nibbles.size(), 3u);
}

TEST(HydraNode, HeadsShareIpDifferentPorts) {
  sim::Simulation sim;
  net::Network network(sim, common::Rng(1));
  HydraConfig config;
  config.head_count = 3;
  HydraNode hydra(sim, network, common::Rng(2), p2p::IpAddress::v4(42), config);
  std::set<std::uint16_t> ports;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto addr = hydra.head(i).swarm().listen_address();
    EXPECT_EQ(addr.ip, p2p::IpAddress::v4(42));
    ports.insert(addr.port);
  }
  EXPECT_EQ(ports.size(), 3u);
}

TEST(HydraNode, HeadsAreDhtServersWithHydraAgent) {
  sim::Simulation sim;
  net::Network network(sim, common::Rng(1));
  HydraNode hydra(sim, network, common::Rng(2), p2p::IpAddress::v4(42), {});
  for (std::size_t i = 0; i < hydra.head_count(); ++i) {
    EXPECT_TRUE(hydra.head(i).dht().is_server());
    EXPECT_EQ(hydra.head(i).agent(), "hydra-booster/0.7.4");
    // Heads serve the DHT, not content.
    const auto protocols = hydra.head(i).announced_protocols();
    for (const common::Symbol protocol : protocols) {
      EXPECT_FALSE(p2p::protocols::is_bitswap(protocol.view())) << protocol.view();
    }
  }
}

TEST(HydraNode, SharedBellyVisibleToAllHeads) {
  sim::Simulation sim;
  net::Network network(sim, common::Rng(1));
  HydraNode hydra(sim, network, common::Rng(2), p2p::IpAddress::v4(42), {});
  const dht::RecordKey key = dht::RecordKey::from_seed(7);
  hydra.put_record(key, p2p::PeerId::from_seed(8), 0);
  EXPECT_EQ(hydra.belly().get(key, 1000).size(), 1u);
  EXPECT_EQ(hydra.belly().key_count(), 1u);
}

TEST(HydraNode, UnionOfHeadPeerstores) {
  FidelityNet net;
  auto& a = net.add_node(node::NodeConfig::dht_server());
  auto& b = net.add_node(node::NodeConfig::dht_server());

  HydraConfig config;
  config.head_count = 2;
  HydraNode hydra(net.sim(), net.network(), common::Rng(3),
                  net.ips().unique_v4(), config);
  hydra.start();

  // Different peers connect to different heads.
  net.network().dial(a.id(), hydra.head(0).id());
  net.network().dial(b.id(), hydra.head(1).id());
  net.sim().run_until(10 * kSecond);

  const auto pids = hydra.union_known_pids();
  EXPECT_TRUE(pids.contains(a.id()));
  EXPECT_TRUE(pids.contains(b.id()));
  EXPECT_GE(hydra.total_open_connections(), 2u);
  hydra.stop();
}

TEST(HydraNode, BroaderHorizonThanSingleNode) {
  // The paper's Fig. 2 rationale: more heads -> more of the keyspace
  // contacts a head.  Here: peers dial whichever head/node is "closest";
  // two heads collect at least as many peers as one node.
  FidelityNet net;
  auto& single = net.add_node(node::NodeConfig::dht_server());

  HydraConfig config;
  config.head_count = 3;
  HydraNode hydra(net.sim(), net.network(), common::Rng(4),
                  net.ips().unique_v4(), config);
  hydra.start();
  hydra.bootstrap({single.id()});
  net.sim().run_until(10 * kSecond);

  for (int i = 0; i < 12; ++i) {
    auto& peer = net.add_node(node::NodeConfig::dht_server());
    // Every peer knows one head; the DHT spreads knowledge further.
    peer.bootstrap({hydra.head(static_cast<std::size_t>(i % 3)).id()});
  }
  net.sim().run_until(net.sim().now() + 10 * common::kMinute);

  EXPECT_GE(hydra.union_known_pids().size(),
            single.swarm().peerstore().size());
  hydra.stop();
}

}  // namespace
}  // namespace ipfs::hydra
