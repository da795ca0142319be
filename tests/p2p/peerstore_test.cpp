#include "p2p/peerstore.hpp"

#include <gtest/gtest.h>

#include "p2p/protocols.hpp"

namespace ipfs::p2p {
namespace {

std::vector<Symbol> symbols(std::initializer_list<std::string_view> names) {
  std::vector<Symbol> out;
  for (const std::string_view name : names) out.emplace_back(name);
  return out;
}

struct EventLog : PeerstoreObserver {
  struct AgentChange {
    PeerId peer;
    Symbol previous;
    Symbol current;
    common::SimTime at;
  };
  std::vector<PeerId> added_peers;
  std::vector<AgentChange> agent_changes;
  std::vector<std::pair<std::vector<Symbol>, std::vector<Symbol>>> protocol_changes;
  std::vector<Multiaddr> addresses;

  void on_peer_added(const PeerId& peer, common::SimTime) override {
    added_peers.push_back(peer);
  }
  void on_agent_changed(const PeerId& peer, Symbol previous, Symbol current,
                        common::SimTime at) override {
    agent_changes.push_back({peer, previous, current, at});
  }
  void on_protocols_changed(const PeerId&, const std::vector<Symbol>& added,
                            const std::vector<Symbol>& removed,
                            common::SimTime) override {
    protocol_changes.emplace_back(added, removed);
  }
  void on_address_added(const PeerId&, const Multiaddr& address,
                        common::SimTime) override {
    addresses.push_back(address);
  }
};

class PeerstoreTest : public ::testing::Test {
 protected:
  PeerstoreTest() { store.add_observer(&log); }
  Peerstore store;
  EventLog log;
  PeerId pid = PeerId::from_seed(1);
};

TEST_F(PeerstoreTest, TouchCreatesEntryOnce) {
  EXPECT_TRUE(store.touch(pid, 100));
  EXPECT_FALSE(store.touch(pid, 200));
  EXPECT_EQ(store.size(), 1u);
  ASSERT_EQ(log.added_peers.size(), 1u);
  const auto* entry = store.find(pid);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->first_seen, 100);
  EXPECT_EQ(entry->last_seen, 200);
}

TEST_F(PeerstoreTest, LastSeenNeverDecreases) {
  store.touch(pid, 500);
  store.touch(pid, 100);
  EXPECT_EQ(store.find(pid)->last_seen, 500);
}

TEST_F(PeerstoreTest, SetAgentFiresOnChangeOnly) {
  store.set_agent(pid, Symbol("go-ipfs/0.10.0/a"), 10);
  store.set_agent(pid, Symbol("go-ipfs/0.10.0/a"), 20);  // no-op
  store.set_agent(pid, Symbol("go-ipfs/0.11.0/b"), 30);
  ASSERT_EQ(log.agent_changes.size(), 2u);
  EXPECT_EQ(log.agent_changes[0].previous.view(), "");
  EXPECT_EQ(log.agent_changes[0].current.view(), "go-ipfs/0.10.0/a");
  EXPECT_EQ(log.agent_changes[1].previous.view(), "go-ipfs/0.10.0/a");
  EXPECT_EQ(log.agent_changes[1].current.view(), "go-ipfs/0.11.0/b");
  EXPECT_EQ(log.agent_changes[1].at, 30);
}

TEST_F(PeerstoreTest, SetProtocolsComputesDiff) {
  store.set_protocols(pid, symbols({"a", "b"}), 10);
  store.set_protocols(pid, symbols({"b", "c"}), 20);
  ASSERT_EQ(log.protocol_changes.size(), 2u);
  EXPECT_EQ(log.protocol_changes[0].first, symbols({"a", "b"}));
  EXPECT_TRUE(log.protocol_changes[0].second.empty());
  EXPECT_EQ(log.protocol_changes[1].first, symbols({"c"}));
  EXPECT_EQ(log.protocol_changes[1].second, symbols({"a"}));
}

TEST_F(PeerstoreTest, SetProtocolsIdenticalIsSilent) {
  store.set_protocols(pid, symbols({"a"}), 10);
  store.set_protocols(pid, symbols({"a"}), 20);
  EXPECT_EQ(log.protocol_changes.size(), 1u);
}

// The diff is over sets: announcement order and repeats do not matter, and
// added/removed come out sorted by text (a prefix sorts first).
TEST_F(PeerstoreTest, SetProtocolsDiffIgnoresOrderAndDuplicates) {
  store.set_protocols(pid, symbols({"/x/b", "/x/a/1", "/x/b", "/x/a", "/x/d"}), 10);
  store.set_protocols(pid, symbols({"/x/c", "/x/a", "/x/c", "/x/b", "/x/a"}), 20);
  ASSERT_EQ(log.protocol_changes.size(), 2u);
  EXPECT_EQ(log.protocol_changes[0].first, symbols({"/x/a", "/x/a/1", "/x/b", "/x/d"}));
  EXPECT_TRUE(log.protocol_changes[0].second.empty());
  EXPECT_EQ(log.protocol_changes[1].first, symbols({"/x/c"}));
  EXPECT_EQ(log.protocol_changes[1].second, symbols({"/x/a/1", "/x/d"}));
  EXPECT_EQ(store.find(pid)->protocols, symbols({"/x/a", "/x/b", "/x/c"}));
}

TEST_F(PeerstoreTest, ReannouncingUnchangedSetReportsNothing) {
  store.set_protocols(pid, symbols({"/x/b", "/x/a"}), 10);
  store.set_protocols(pid, symbols({"/x/a", "/x/b"}), 20);        // sorted
  store.set_protocols(pid, symbols({"/x/b", "/x/a", "/x/b"}), 30);  // reordered, repeated
  EXPECT_EQ(log.protocol_changes.size(), 1u);
  EXPECT_EQ(store.find(pid)->last_seen, 30);
}

TEST_F(PeerstoreTest, RemovedObserverHearsNothing) {
  EventLog other;
  store.add_observer(&other);
  store.remove_observer(&other);
  store.touch(pid, 10);
  store.set_agent(pid, Symbol("a"), 10);
  EXPECT_TRUE(other.added_peers.empty());
  EXPECT_TRUE(other.agent_changes.empty());
  EXPECT_EQ(log.added_peers.size(), 1u);
}

TEST_F(PeerstoreTest, KadAnnouncementMarksServerForever) {
  store.set_protocols(pid, {protocols::kKad}, 10);
  EXPECT_TRUE(store.find(pid)->ever_dht_server);
  store.set_protocols(pid, {}, 20);  // role switch to client
  EXPECT_TRUE(store.find(pid)->ever_dht_server);
  EXPECT_FALSE(store.supports(pid, protocols::kKad));
}

TEST_F(PeerstoreTest, SupportsChecksCurrentSet) {
  store.set_protocols(pid, {protocols::kPing}, 10);
  EXPECT_TRUE(store.supports(pid, protocols::kPing));
  EXPECT_FALSE(store.supports(pid, protocols::kKad));
  EXPECT_FALSE(store.supports(PeerId::from_seed(99), protocols::kPing));
}

TEST_F(PeerstoreTest, AddressesDeduplicated) {
  const Multiaddr addr{IpAddress::v4(42), Transport::kTcp, 4001};
  store.add_address(pid, addr, 10);
  store.add_address(pid, addr, 20);
  EXPECT_EQ(log.addresses.size(), 1u);
  EXPECT_EQ(store.find(pid)->addresses.size(), 1u);
}

TEST_F(PeerstoreTest, FindUnknownReturnsNull) {
  EXPECT_EQ(store.find(PeerId::from_seed(7)), nullptr);
}

TEST_F(PeerstoreTest, MultiplePeersIndependent) {
  const PeerId other = PeerId::from_seed(2);
  store.set_agent(pid, Symbol("a"), 1);
  store.set_agent(other, Symbol("b"), 1);
  EXPECT_EQ(store.find(pid)->agent.view(), "a");
  EXPECT_EQ(store.find(other)->agent.view(), "b");
  EXPECT_EQ(store.size(), 2u);
}

}  // namespace
}  // namespace ipfs::p2p
