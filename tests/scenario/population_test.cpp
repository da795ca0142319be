#include "scenario/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/version.hpp"
#include "p2p/protocols.hpp"

namespace ipfs::scenario {
namespace {

namespace proto = p2p::protocols;
using common::kDay;

class PopulationTest : public ::testing::Test {
 protected:
  Population build(double scale = 0.05, common::SimDuration duration = 3 * kDay) {
    return Population(PopulationSpec::test_scale(scale), duration, common::Rng(1));
  }
};

TEST_F(PopulationTest, DeterministicForSameSeed) {
  const Population a = build();
  const Population b = build();
  ASSERT_EQ(a.peers().size(), b.peers().size());
  for (std::size_t i = 0; i < a.peers().size(); ++i) {
    EXPECT_EQ(a.peers()[i].pid, b.peers()[i].pid);
    EXPECT_EQ(a.peers()[i].agent, b.peers()[i].agent);
    EXPECT_EQ(a.peers()[i].ip, b.peers()[i].ip);
  }
}

TEST_F(PopulationTest, ScaleControlsSize) {
  const Population small = build(0.02);
  const Population large = build(0.08);
  EXPECT_GT(large.peers().size(), 3 * small.peers().size());
}

TEST_F(PopulationTest, ArrivalCategoriesScaleWithDuration) {
  const Population short_run = build(0.05, 1 * kDay);
  const Population long_run = build(0.05, 6 * kDay);
  EXPECT_GT(long_run.count(Category::kOneTime),
            4 * short_run.count(Category::kOneTime));
  // Standing categories do not scale with duration.
  EXPECT_EQ(long_run.count(Category::kCoreClient),
            short_run.count(Category::kCoreClient));
}

TEST_F(PopulationTest, PidsAreUnique) {
  const Population population = build(0.1);
  std::set<p2p::PeerId> pids;
  for (const RemotePeer& peer : population.peers()) pids.insert(peer.pid);
  EXPECT_EQ(pids.size(), population.peers().size());
}

TEST_F(PopulationTest, IndicesAreDense) {
  const Population population = build();
  for (std::size_t i = 0; i < population.peers().size(); ++i) {
    EXPECT_EQ(population.peers()[i].index, i);
  }
}

TEST_F(PopulationTest, HydraHeadsClusterOnFewIps) {
  const Population population = build(0.2);
  std::map<p2p::IpAddress, int> hydra_ips;
  int hydra_count = 0;
  for (const RemotePeer& peer : population.peers()) {
    if (peer.category == Category::kHydra) {
      ++hydra_ips[peer.ip];
      ++hydra_count;
    }
  }
  EXPECT_GT(hydra_count, 100);
  // Far fewer IPs than heads (the paper's 1'026-heads-on-11-IPs pattern).
  EXPECT_LT(static_cast<int>(hydra_ips.size()), hydra_count / 5);
  for (const RemotePeer& peer : population.peers()) {
    if (peer.category == Category::kHydra) {
      EXPECT_EQ(peer.agent.view(), "hydra-booster/0.7.4");
      EXPECT_TRUE(peer.dht_server);
    }
  }
}

TEST_F(PopulationTest, RotatingPidsShareOneIpAndAgent) {
  const Population population = build(0.2);
  std::set<p2p::IpAddress> ips;
  std::set<common::Symbol> agents;
  std::size_t count = 0;
  for (const RemotePeer& peer : population.peers()) {
    if (peer.category == Category::kRotatingPid) {
      ips.insert(peer.ip);
      agents.insert(peer.agent);
      ++count;
    }
  }
  EXPECT_GT(count, 50u);
  EXPECT_EQ(ips.size(), 1u);
  EXPECT_EQ(agents.size(), 1u);
}

TEST_F(PopulationTest, EphemeralPeersHaveNoAgent) {
  const Population population = build();
  for (const RemotePeer& peer : population.peers()) {
    if (peer.category == Category::kEphemeral) {
      EXPECT_TRUE(peer.agent.empty());
      EXPECT_TRUE(peer.protocols.empty());
    }
  }
}

TEST_F(PopulationTest, DisguisedStormFingerprint) {
  const Population population = build(0.1);
  std::size_t disguised = 0;
  for (const RemotePeer& peer : population.peers()) {
    if (peer.category != Category::kLightServer) continue;
    const bool has_sbptp = std::ranges::binary_search(peer.protocols, proto::kSbptp);
    if (!has_sbptp) continue;
    ++disguised;
    // The paper's fingerprint: claims go-ipfs v0.8.0, no bitswap.
    EXPECT_NE(peer.agent.view().find("go-ipfs/0.8.0"), std::string_view::npos);
    for (const common::Symbol protocol : peer.protocols) {
      EXPECT_FALSE(proto::is_bitswap(protocol.view()));
    }
  }
  EXPECT_GT(disguised, 300u);  // ~7.5k at full scale
}

TEST_F(PopulationTest, ServersAnnounceKad) {
  const Population population = build();
  for (const RemotePeer& peer : population.peers()) {
    if (peer.agent.empty()) continue;
    const bool announces = std::ranges::binary_search(peer.protocols, proto::kKad);
    EXPECT_EQ(announces, peer.dht_server) << to_string(peer.category);
  }
}

TEST_F(PopulationTest, OneShotWindowsInsideMeasurement) {
  const Population population = build(0.05, 3 * kDay);
  for (const RemotePeer& peer : population.peers()) {
    const auto& params = default_params(peer.category);
    if (params.session != SessionKind::kOneShot) continue;
    EXPECT_GE(peer.session_start, 0);
    EXPECT_LT(peer.session_start, 3 * kDay);
    EXPECT_GT(peer.session_length, 0);
  }
}

TEST_F(PopulationTest, NormalUserSessionsBetweenTwoAndTwentyFourHours) {
  const Population population = build(0.1);
  for (const RemotePeer& peer : population.peers()) {
    if (peer.category != Category::kNormalUser) continue;
    EXPECT_GT(peer.session_length, 2 * common::kHour);
    EXPECT_LT(peer.session_length, 24 * common::kHour);
  }
}

TEST_F(PopulationTest, AgentMixMatchesPaperShares) {
  const Population population = build(0.3);
  std::size_t go_ipfs = 0;
  std::size_t missing = 0;
  for (const RemotePeer& peer : population.peers()) {
    if (peer.agent.empty()) {
      ++missing;
    } else if (peer.agent.view().starts_with("go-ipfs/")) {
      ++go_ipfs;
    }
  }
  const double total = static_cast<double>(population.peers().size());
  // Paper: 50'254 / 65'853 = 76 % go-ipfs, 3'059 / 65'853 = 4.6 % missing.
  EXPECT_NEAR(static_cast<double>(go_ipfs) / total, 0.76, 0.06);
  EXPECT_NEAR(static_cast<double>(missing) / total, 0.046, 0.02);
}

TEST_F(PopulationTest, GoIpfsAgentStringsParse) {
  const Population population = build(0.1);
  for (const RemotePeer& peer : population.peers()) {
    if (!peer.agent.view().starts_with("go-ipfs/")) continue;
    const auto info = common::AgentInfo::parse(peer.agent.view());
    EXPECT_TRUE(info.is_go_ipfs());
    EXPECT_TRUE(info.version.has_value()) << peer.agent.view();
    EXPECT_FALSE(info.commit.empty()) << peer.agent.view();
  }
}

TEST_F(PopulationTest, DhtServerShareNearPaper) {
  const Population population = build(0.3);
  const double share = static_cast<double>(population.dht_server_count()) /
                       static_cast<double>(population.peers().size());
  // Paper: 18'845 kad supporters of 65'853 PIDs = 28.6 %.
  EXPECT_NEAR(share, 0.286, 0.05);
}

TEST_F(PopulationTest, SomePeersAreDualHomed) {
  const Population population = build(0.2);
  std::size_t dual = 0;
  for (const RemotePeer& peer : population.peers()) {
    if (peer.has_alt_ip) {
      ++dual;
      EXPECT_NE(peer.alt_ip, peer.ip);
    }
  }
  EXPECT_GT(dual, 100u);
}

}  // namespace
}  // namespace ipfs::scenario
