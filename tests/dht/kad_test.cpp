#include "dht/kad.hpp"

#include <gtest/gtest.h>

#include "../testing/fidelity.hpp"

namespace ipfs::dht {
namespace {

using common::kSecond;
using ipfs::testing::FidelityNet;

TEST(KadEngine, ServerAnnouncesAndAnswersQueries) {
  FidelityNet net;
  auto& a = net.add_node(node::NodeConfig::dht_server());
  auto& b = net.add_node(node::NodeConfig::dht_server());
  net.bootstrap_all();

  // b knows a via bootstrap; a lookup from b must query someone.
  bool done = false;
  LookupResult result;
  b.dht().lookup(p2p::PeerId::from_seed(1234), [&](LookupResult r) {
    done = true;
    result = std::move(r);
  });
  net.sim().run_until(net.sim().now() + 60 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.queried_count, 1u);
  EXPECT_GE(a.dht().queries_served(), 1u);
}

TEST(KadEngine, ClientDoesNotAnswerQueries) {
  FidelityNet net;
  net.add_node(node::NodeConfig::dht_server());
  auto& client = net.add_node(node::NodeConfig::dht_client());
  net.bootstrap_all();

  EXPECT_FALSE(client.dht().is_server());
  // Drive a query at the client directly.
  net::Message message;
  message.protocol = p2p::protocols::kKad.str();
  message.body = FindNodeRequest{p2p::PeerId::from_seed(1), 77};
  client.handle_message(net.node(0).id(), message);
  EXPECT_EQ(client.dht().queries_served(), 0u);
}

TEST(KadEngine, LookupFindsClosePeersInLargerNetwork) {
  FidelityNet net;
  for (int i = 0; i < 40; ++i) net.add_node(node::NodeConfig::dht_server());
  net.bootstrap_all(2 * common::kMinute);
  // Let refresh cycles interconnect the overlay.
  net.sim().run_until(net.sim().now() + 10 * common::kMinute);

  auto& searcher = net.node(5);
  const p2p::PeerId target = net.node(30).id();
  bool done = false;
  LookupResult result;
  searcher.dht().lookup(target, [&](LookupResult r) {
    done = true;
    result = std::move(r);
  });
  net.sim().run_until(net.sim().now() + 2 * common::kMinute);
  ASSERT_TRUE(done);
  ASSERT_FALSE(result.closest.empty());
  // The target itself must be discovered (it is a live DHT server).
  EXPECT_EQ(result.closest.front(), target);
}

TEST(KadEngine, LookupWithEmptyTableFinishesUnconverged) {
  sim::Simulation sim;
  net::Network network(sim, common::Rng(1));
  KadEngine engine(sim, network, p2p::PeerId::from_seed(1), Mode::kServer);
  bool done = false;
  LookupResult result;
  engine.lookup(p2p::PeerId::from_seed(2), [&](LookupResult r) {
    done = true;
    result = std::move(r);
  });
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.closest.empty());
}

TEST(KadEngine, TimeoutEvictsDeadPeers) {
  sim::Simulation sim;
  net::Network network(sim, common::Rng(1));
  KadEngine engine(sim, network, p2p::PeerId::from_seed(1), Mode::kServer);
  const p2p::PeerId dead = p2p::PeerId::from_seed(2);  // never registered
  engine.observe_peer(dead);
  EXPECT_TRUE(engine.routing_table().contains(dead));
  bool done = false;
  engine.lookup(p2p::PeerId::from_seed(3), [&](LookupResult) { done = true; });
  sim.run_until(sim.now() + 2 * KadEngine::kRequestTimeout + common::kMinute);
  EXPECT_TRUE(done);
  EXPECT_FALSE(engine.routing_table().contains(dead));
}

TEST(KadEngine, ModeSwitchTakesEffect) {
  sim::Simulation sim;
  net::Network network(sim, common::Rng(1));
  KadEngine engine(sim, network, p2p::PeerId::from_seed(1), Mode::kClient);
  EXPECT_FALSE(engine.is_server());
  engine.set_mode(Mode::kServer);
  EXPECT_TRUE(engine.is_server());
}

TEST(KadEngine, RefreshPopulatesTablesAcrossNetwork) {
  FidelityNet net;
  for (int i = 0; i < 20; ++i) net.add_node(node::NodeConfig::dht_server());
  net.bootstrap_all(30 * kSecond);
  net.sim().run_until(net.sim().now() + 15 * common::kMinute);
  // After bootstrap + refresh, every node's table holds several peers.
  std::size_t total = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    total += net.node(i).dht().routing_table().size();
  }
  EXPECT_GT(total / net.size(), 3u);
}

}  // namespace
}  // namespace ipfs::dht
