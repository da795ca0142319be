#include "measure/dataset.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace ipfs::measure {
namespace {

using common::kSecond;
using common::Symbol;

TEST(Dataset, InternCreatesOnce) {
  Dataset dataset;
  const auto pid = p2p::PeerId::from_seed(1);
  const PeerIndex a = dataset.intern(pid, 100);
  const PeerIndex b = dataset.intern(pid, 200);
  EXPECT_EQ(a, b);
  EXPECT_EQ(dataset.peer_count(), 1u);
  EXPECT_EQ(dataset.record(a).first_seen, 100);
  EXPECT_EQ(dataset.record(a).last_seen, 200);
}

TEST(Dataset, FindByPid) {
  Dataset dataset;
  const auto pid = p2p::PeerId::from_seed(1);
  dataset.intern(pid, 5);
  ASSERT_NE(dataset.find(pid), nullptr);
  EXPECT_EQ(dataset.find(pid)->pid, pid);
  EXPECT_EQ(dataset.find(p2p::PeerId::from_seed(9)), nullptr);
}

TEST(Dataset, ConnectionsByPeerGroups) {
  Dataset dataset;
  const PeerIndex a = dataset.intern(p2p::PeerId::from_seed(1), 0);
  const PeerIndex b = dataset.intern(p2p::PeerId::from_seed(2), 0);
  dataset.add_connection({a, 0, 10, p2p::Direction::kInbound,
                          p2p::CloseReason::kRemoteClose});
  dataset.add_connection({b, 0, 20, p2p::Direction::kInbound,
                          p2p::CloseReason::kRemoteClose});
  dataset.add_connection({a, 30, 40, p2p::Direction::kOutbound,
                          p2p::CloseReason::kLocalClose});
  const auto& by_peer = dataset.connections_by_peer();
  ASSERT_EQ(by_peer.size(), 2u);
  EXPECT_EQ(by_peer[a].size(), 2u);
  EXPECT_EQ(by_peer[b].size(), 1u);
}

TEST(Dataset, ConnRecordDuration) {
  ConnRecord record;
  record.opened = 10 * kSecond;
  record.closed = 95 * kSecond;
  EXPECT_EQ(record.duration(), 85 * kSecond);
}

TEST(Dataset, MergeUnionsPeers) {
  Dataset a;
  a.vantage = "H0";
  a.measurement_start = 0;
  a.measurement_end = 100;
  const auto shared_pid = p2p::PeerId::from_seed(1);
  const auto a_only = p2p::PeerId::from_seed(2);
  const PeerIndex ai = a.intern(shared_pid, 10);
  a.intern(a_only, 20);
  a.record(ai).agent_history.push_back({10, Symbol("go-ipfs/0.11.0/x")});
  a.record(ai).protocols_ever = {Symbol("/ipfs/kad/1.0.0")};
  a.record(ai).ever_dht_server = true;
  a.add_connection({ai, 10, 50, p2p::Direction::kInbound,
                    p2p::CloseReason::kRemoteClose});

  Dataset b;
  b.vantage = "H1";
  b.measurement_start = 0;
  b.measurement_end = 200;
  const auto b_only = p2p::PeerId::from_seed(3);
  const PeerIndex bi = b.intern(shared_pid, 5);
  b.intern(b_only, 30);
  b.record(bi).agent_history.push_back({40, Symbol("go-ipfs/0.12.0/y")});
  b.add_connection({bi, 5, 25, p2p::Direction::kInbound,
                    p2p::CloseReason::kRemoteClose});

  Dataset merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.peer_count(), 3u);
  EXPECT_EQ(merged.connection_count(), 2u);
  EXPECT_EQ(merged.measurement_end, 200);

  const PeerRecord* shared = merged.find(shared_pid);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->first_seen, 5);
  EXPECT_TRUE(shared->ever_dht_server);
  // Agent histories interleave in time order.
  ASSERT_EQ(shared->agent_history.size(), 2u);
  EXPECT_EQ(shared->agent_history[0].at, 10);
  EXPECT_EQ(shared->agent_history[1].at, 40);

  // Connection peer indices remapped into the merged dataset.
  for (const ConnRecord& record : merged.connections()) {
    EXPECT_LT(record.peer, merged.peer_count());
  }
}

TEST(Dataset, MergeUnionsProtocolsAndIps) {
  const auto ip = [](std::uint32_t v) { return p2p::IpAddress::v4(v); };
  const auto pid = p2p::PeerId::from_seed(1);
  Dataset a;
  const PeerIndex ai = a.intern(pid, 0);
  a.record(ai).protocols_ever = {Symbol("/x/b"), Symbol("/x/d")};
  a.record(ai).connected_ips = {ip(1), ip(3)};
  Dataset b;
  const PeerIndex bi = b.intern(pid, 0);
  b.record(bi).protocols_ever = {Symbol("/x/a"), Symbol("/x/b"), Symbol("/x/c")};
  b.record(bi).connected_ips = {ip(2), ip(3)};
  b.intern(p2p::PeerId::from_seed(2), 0);  // no sets at all

  Dataset merged;
  merged.merge(a);
  merged.merge(b);
  const PeerRecord* shared = merged.find(pid);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->protocols_ever,
            (std::vector<Symbol>{Symbol("/x/a"), Symbol("/x/b"), Symbol("/x/c"),
                                 Symbol("/x/d")}));
  EXPECT_EQ(shared->connected_ips, (std::vector<p2p::IpAddress>{ip(1), ip(2), ip(3)}));
  const PeerRecord* bare = merged.find(p2p::PeerId::from_seed(2));
  ASSERT_NE(bare, nullptr);
  EXPECT_TRUE(bare->protocols_ever.empty());
  EXPECT_TRUE(bare->connected_ips.empty());
}

TEST(Dataset, MergeRemapsConnectionIndices) {
  Dataset a;
  a.intern(p2p::PeerId::from_seed(10), 0);  // occupies index 0
  Dataset b;
  const PeerIndex bi = b.intern(p2p::PeerId::from_seed(20), 0);
  b.add_connection({bi, 0, 10, p2p::Direction::kInbound,
                    p2p::CloseReason::kRemoteClose});
  a.merge(b);
  ASSERT_EQ(a.connection_count(), 1u);
  const auto& record = a.connections()[0];
  EXPECT_EQ(a.record(record.peer).pid, p2p::PeerId::from_seed(20));
}

TEST(Dataset, ExportJsonIsWellFormedish) {
  Dataset dataset;
  dataset.vantage = "go-ipfs";
  dataset.measurement_end = 1000;
  const PeerIndex i = dataset.intern(p2p::PeerId::from_seed(1), 0);
  dataset.record(i).agent_history.push_back({0, Symbol("go-ipfs/0.11.0/x")});
  dataset.record(i).connected_ips = {p2p::IpAddress::v4(42)};
  dataset.add_connection({i, 0, 500, p2p::Direction::kInbound,
                          p2p::CloseReason::kRemoteTrim});
  std::ostringstream out;
  dataset.export_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"vantage\": \"go-ipfs\""), std::string::npos);
  EXPECT_NE(json.find("\"agent\": \"go-ipfs/0.11.0/x\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"remote-trim\""), std::string::npos);
  // Balanced braces/brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Dataset, ExportJsonWithoutConnections) {
  Dataset dataset;
  const PeerIndex i = dataset.intern(p2p::PeerId::from_seed(1), 0);
  dataset.add_connection({i, 0, 1, p2p::Direction::kInbound,
                          p2p::CloseReason::kRemoteClose});
  std::ostringstream out;
  dataset.export_json(out, /*include_connections=*/false);
  EXPECT_EQ(out.str().find("\"connections\""), std::string::npos);
}

}  // namespace
}  // namespace ipfs::measure
