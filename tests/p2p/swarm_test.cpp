#include "p2p/swarm.hpp"

#include <gtest/gtest.h>

namespace ipfs::p2p {
namespace {

using common::kSecond;

struct CloseLog : SwarmObserver {
  std::vector<Connection> opened;
  std::vector<Connection> closed;
  void on_connection_opened(const Connection& connection) override {
    opened.push_back(connection);
  }
  void on_connection_closed(const Connection& connection) override {
    closed.push_back(connection);
  }
};

class SwarmTest : public ::testing::Test {
 protected:
  SwarmTest()
      : swarm(sim, PeerId::from_seed(1),
              Multiaddr{IpAddress::v4(1), Transport::kTcp, 4001},
              {ConnManagerConfig::with_watermarks(2, 4), true}) {
    swarm.add_observer(&log);
  }

  Multiaddr remote_addr(std::uint32_t ip) {
    return Multiaddr{IpAddress::v4(ip), Transport::kTcp, 4001};
  }

  sim::Simulation sim;
  Swarm swarm;
  CloseLog log;
};

TEST_F(SwarmTest, OpenCloseLifecycle) {
  const auto id =
      swarm.open_connection(PeerId::from_seed(2), remote_addr(2), Direction::kInbound);
  EXPECT_EQ(swarm.open_count(), 1u);
  EXPECT_TRUE(swarm.connected_to(PeerId::from_seed(2)));
  ASSERT_NE(swarm.find(id), nullptr);
  EXPECT_TRUE(swarm.find(id)->is_open());

  sim.run_until(10 * kSecond);
  EXPECT_TRUE(swarm.close_connection(id, CloseReason::kRemoteClose));
  EXPECT_EQ(swarm.open_count(), 0u);
  EXPECT_FALSE(swarm.connected_to(PeerId::from_seed(2)));
  ASSERT_EQ(log.closed.size(), 1u);
  EXPECT_EQ(log.closed[0].reason, CloseReason::kRemoteClose);
  EXPECT_EQ(log.closed[0].closed, 10 * kSecond);
  EXPECT_EQ(log.closed[0].duration_at(sim.now()), 10 * kSecond);
}

TEST_F(SwarmTest, DoubleCloseReturnsFalse) {
  const auto id =
      swarm.open_connection(PeerId::from_seed(2), remote_addr(2), Direction::kInbound);
  EXPECT_TRUE(swarm.close_connection(id, CloseReason::kLocalClose));
  EXPECT_FALSE(swarm.close_connection(id, CloseReason::kLocalClose));
  EXPECT_FALSE(swarm.close_connection(9999, CloseReason::kLocalClose));
}

TEST_F(SwarmTest, PeerstoreLearnsAddressOnOpen) {
  swarm.open_connection(PeerId::from_seed(2), remote_addr(42), Direction::kInbound);
  const auto* entry = swarm.peerstore().find(PeerId::from_seed(2));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->addresses.count(remote_addr(42)), 1u);
}

TEST_F(SwarmTest, MultipleConnectionsPerPeer) {
  const PeerId remote = PeerId::from_seed(2);
  const auto a = swarm.open_connection(remote, remote_addr(2), Direction::kInbound);
  const auto b = swarm.open_connection(remote, remote_addr(2), Direction::kOutbound);
  EXPECT_NE(a, b);
  EXPECT_EQ(swarm.open_count(), 2u);
  swarm.close_connection(a, CloseReason::kLocalClose);
  EXPECT_TRUE(swarm.connected_to(remote));  // second connection remains
  swarm.close_connection(b, CloseReason::kLocalClose);
  EXPECT_FALSE(swarm.connected_to(remote));
}

TEST_F(SwarmTest, ClosePeerClosesAll) {
  const PeerId remote = PeerId::from_seed(2);
  swarm.open_connection(remote, remote_addr(2), Direction::kInbound);
  swarm.open_connection(remote, remote_addr(2), Direction::kInbound);
  swarm.open_connection(PeerId::from_seed(3), remote_addr(3), Direction::kInbound);
  EXPECT_EQ(swarm.close_peer(remote, CloseReason::kPeerOffline), 2u);
  EXPECT_EQ(swarm.open_count(), 1u);
}

TEST_F(SwarmTest, CloseAll) {
  for (int i = 2; i < 6; ++i) {
    swarm.open_connection(PeerId::from_seed(static_cast<std::uint64_t>(i)),
                          remote_addr(static_cast<std::uint32_t>(i)),
                          Direction::kInbound);
  }
  swarm.close_all(CloseReason::kMeasurementEnd);
  EXPECT_EQ(swarm.open_count(), 0u);
  EXPECT_EQ(log.closed.size(), 4u);
  for (const Connection& connection : log.closed) {
    EXPECT_EQ(connection.reason, CloseReason::kMeasurementEnd);
  }
}

TEST_F(SwarmTest, TrimOnHighWaterCrossing) {
  // HighWater = 4: the fifth connection triggers an immediate trim to
  // LowWater = 2, but only connections past the 20 s grace period close.
  for (int i = 2; i <= 5; ++i) {
    swarm.open_connection(PeerId::from_seed(static_cast<std::uint64_t>(i)),
                          remote_addr(static_cast<std::uint32_t>(i)),
                          Direction::kInbound);
  }
  EXPECT_EQ(swarm.open_count(), 4u);
  sim.run_until(30 * kSecond);  // all four leave the grace period
  swarm.open_connection(PeerId::from_seed(6), remote_addr(6), Direction::kInbound);
  // 5 open > HighWater=4 -> trim to LowWater=2.
  EXPECT_EQ(swarm.open_count(), 2u);
  for (const Connection& connection : log.closed) {
    EXPECT_EQ(connection.reason, CloseReason::kLocalTrim);
  }
}

TEST_F(SwarmTest, PeriodicTrimLoop) {
  swarm.start();
  for (int i = 2; i <= 6; ++i) {
    swarm.open_connection(PeerId::from_seed(static_cast<std::uint64_t>(i)),
                          remote_addr(static_cast<std::uint32_t>(i)),
                          Direction::kInbound);
  }
  // All inside grace: the on-open trim could not close anything yet.
  EXPECT_EQ(swarm.open_count(), 5u);
  sim.run_until(60 * kSecond);  // trim ticks run every 10 s
  EXPECT_EQ(swarm.open_count(), 2u);
  swarm.stop();
}

TEST_F(SwarmTest, TrimHonoursProtection) {
  sim.run_until(0);
  std::vector<ConnectionId> ids;
  for (int i = 2; i <= 6; ++i) {
    const PeerId remote = PeerId::from_seed(static_cast<std::uint64_t>(i));
    ids.push_back(swarm.open_connection(remote, remote_addr(2), Direction::kInbound));
    swarm.conn_manager().protect(remote);
  }
  sim.run_until(60 * kSecond);
  EXPECT_EQ(swarm.trim_now(), 0u);
  EXPECT_EQ(swarm.open_count(), 5u);
}

TEST_F(SwarmTest, TicksAtOrBelowHighWaterCloseNothing) {
  swarm.start();
  // Exactly HighWater = 4 open; every tick past the 20 s grace period would
  // find victims if the trim ran at all.
  for (int i = 2; i <= 5; ++i) {
    swarm.open_connection(PeerId::from_seed(static_cast<std::uint64_t>(i)),
                          remote_addr(static_cast<std::uint32_t>(i)),
                          Direction::kInbound);
  }
  sim.run_until(120 * kSecond);  // twelve trim ticks
  EXPECT_EQ(swarm.trim_now(), 0u);
  swarm.close_connection(swarm.open_connections().front()->id, CloseReason::kLocalClose);
  sim.run_until(240 * kSecond);
  EXPECT_EQ(swarm.trim_now(), 0u);
  EXPECT_EQ(swarm.open_count(), 3u);
  ASSERT_EQ(log.closed.size(), 1u);
  EXPECT_EQ(log.closed[0].reason, CloseReason::kLocalClose);
  swarm.stop();
}

TEST(SwarmZeroHighWater, TrimNowReturnsZero) {
  sim::Simulation sim;
  Swarm swarm(sim, PeerId::from_seed(1),
              Multiaddr{IpAddress::v4(1), Transport::kTcp, 4001},
              {ConnManagerConfig::with_watermarks(0, 0), /*trim_enabled=*/true});
  swarm.start();
  for (int i = 2; i < 12; ++i) {
    swarm.open_connection(PeerId::from_seed(static_cast<std::uint64_t>(i)),
                          Multiaddr{IpAddress::v4(static_cast<std::uint32_t>(i)),
                                    Transport::kTcp, 4001},
                          Direction::kInbound);
  }
  sim.run_until(120 * kSecond);
  EXPECT_EQ(swarm.trim_now(), 0u);
  EXPECT_EQ(swarm.open_count(), 10u);
  swarm.stop();
}

TEST_F(SwarmTest, OpenedTotalCounts) {
  for (int i = 0; i < 3; ++i) {
    const auto id = swarm.open_connection(PeerId::from_seed(2), remote_addr(2),
                                          Direction::kInbound);
    swarm.close_connection(id, CloseReason::kLocalClose);
  }
  EXPECT_EQ(swarm.opened_total(), 3u);
  EXPECT_EQ(swarm.open_count(), 0u);
}

TEST_F(SwarmTest, ObserverRemoval) {
  swarm.remove_observer(&log);
  swarm.open_connection(PeerId::from_seed(2), remote_addr(2), Direction::kInbound);
  EXPECT_TRUE(log.opened.empty());
}

TEST_F(SwarmTest, ConnectionIdsAreUniqueAndMonotonic) {
  ConnectionId previous = 0;
  for (int i = 0; i < 10; ++i) {
    const auto id = swarm.open_connection(PeerId::from_seed(2), remote_addr(2),
                                          Direction::kInbound);
    EXPECT_GT(id, previous);
    previous = id;
    swarm.close_connection(id, CloseReason::kLocalClose);
  }
}

TEST(SwarmNoTrim, DisabledTrimKeepsEverything) {
  sim::Simulation sim;
  Swarm swarm(sim, PeerId::from_seed(1),
              Multiaddr{IpAddress::v4(1), Transport::kTcp, 4001},
              {ConnManagerConfig::with_watermarks(1, 2), /*trim_enabled=*/false});
  swarm.start();
  for (int i = 2; i < 30; ++i) {
    swarm.open_connection(PeerId::from_seed(static_cast<std::uint64_t>(i)),
                          Multiaddr{IpAddress::v4(static_cast<std::uint32_t>(i)),
                                    Transport::kTcp, 4001},
                          Direction::kInbound);
  }
  sim.run_until(120 * kSecond);
  EXPECT_EQ(swarm.open_count(), 28u);
}

}  // namespace
}  // namespace ipfs::p2p
