#include "p2p/peerstore.hpp"

#include <algorithm>

#include "common/flat_set.hpp"
#include "p2p/protocols.hpp"

namespace ipfs::p2p {

Peerstore::Entry& Peerstore::get_or_create(const PeerId& peer, SimTime now) {
  auto [it, inserted] = entries_.try_emplace(peer);
  if (inserted) {
    it->second.first_seen = now;
    it->second.last_seen = now;
    for (PeerstoreObserver* observer : observers_) observer->on_peer_added(peer, now);
  }
  return it->second;
}

bool Peerstore::touch(const PeerId& peer, SimTime now) {
  const std::size_t before = entries_.size();
  Entry& entry = get_or_create(peer, now);
  entry.last_seen = std::max(entry.last_seen, now);
  return entries_.size() != before;
}

void Peerstore::set_agent(const PeerId& peer, Symbol agent, SimTime now) {
  Entry& entry = get_or_create(peer, now);
  entry.last_seen = std::max(entry.last_seen, now);
  if (entry.agent == agent) return;
  const Symbol previous = entry.agent;
  entry.agent = agent;
  for (PeerstoreObserver* observer : observers_) {
    observer->on_agent_changed(peer, previous, agent, now);
  }
}

void Peerstore::set_protocols(const PeerId& peer,
                              const std::vector<Symbol>& protocol_list,
                              SimTime now) {
  Entry& entry = get_or_create(peer, now);
  entry.last_seen = std::max(entry.last_seen, now);
  // Re-announcing an unchanged, already normalised list is the common case
  // and costs no allocation.
  if (protocol_list == entry.protocols) return;
  std::vector<Symbol> next = protocol_list;
  common::flat_normalize(next);
  if (next == entry.protocols) return;
  std::vector<Symbol> added;
  std::vector<Symbol> removed;
  std::set_difference(next.begin(), next.end(), entry.protocols.begin(),
                      entry.protocols.end(), std::back_inserter(added));
  std::set_difference(entry.protocols.begin(), entry.protocols.end(), next.begin(),
                      next.end(), std::back_inserter(removed));
  entry.protocols = std::move(next);
  if (std::ranges::binary_search(entry.protocols, protocols::kKad)) {
    entry.ever_dht_server = true;
  }
  for (PeerstoreObserver* observer : observers_) {
    observer->on_protocols_changed(peer, added, removed, now);
  }
}

void Peerstore::add_address(const PeerId& peer, const Multiaddr& address, SimTime now) {
  Entry& entry = get_or_create(peer, now);
  entry.last_seen = std::max(entry.last_seen, now);
  if (entry.addresses.insert(address).second) {
    for (PeerstoreObserver* observer : observers_) {
      observer->on_address_added(peer, address, now);
    }
  }
}

const Peerstore::Entry* Peerstore::find(const PeerId& peer) const {
  const auto it = entries_.find(peer);
  return it == entries_.end() ? nullptr : &it->second;
}

bool Peerstore::supports(const PeerId& peer, Symbol protocol) const {
  const Entry* entry = find(peer);
  if (entry == nullptr) return false;
  return std::ranges::binary_search(entry->protocols, protocol);
}

void Peerstore::remove_observer(PeerstoreObserver* observer) {
  std::erase(observers_, observer);
}

}  // namespace ipfs::p2p
