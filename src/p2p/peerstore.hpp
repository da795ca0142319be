// Peerstore: the per-node database of everything known about other peers.
//
// go-ipfs keeps address, protocol and agent-version books; the paper's
// measurement clients poll exactly these books every 30 s (go-ipfs) / 1 min
// (hydra) and log changes with timestamps (§III-A/B).  Observers registered
// here receive those change events synchronously.
#pragma once

#include <set>
#include <unordered_map>
#include <vector>

#include "common/sim_time.hpp"
#include "common/symbol.hpp"
#include "p2p/multiaddr.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::p2p {

using common::SimTime;
using common::Symbol;

/// Receives peerstore mutation events (used by measure::Recorder).
class PeerstoreObserver {
 public:
  virtual ~PeerstoreObserver() = default;
  virtual void on_peer_added(const PeerId& peer, SimTime now) = 0;
  virtual void on_agent_changed(const PeerId& peer, Symbol previous, Symbol current,
                                SimTime now) = 0;
  /// `added` and `removed` are sorted by text and unique.
  virtual void on_protocols_changed(const PeerId& peer,
                                    const std::vector<Symbol>& added,
                                    const std::vector<Symbol>& removed,
                                    SimTime now) = 0;
  virtual void on_address_added(const PeerId& peer, const Multiaddr& address,
                                SimTime now) = 0;
};

/// Address / protocol / agent books for one node.
class Peerstore {
 public:
  struct Entry {
    Symbol agent;                      ///< empty until identify succeeded
    std::vector<Symbol> protocols;     ///< announced now; sorted, unique
    std::set<Multiaddr> addresses;     ///< all multiaddresses ever observed
    SimTime first_seen = 0;
    SimTime last_seen = 0;
    bool ever_dht_server = false;  ///< announced /ipfs/kad/1.0.0 at least once
  };

  /// Ensure an entry exists; returns true when the peer was new.
  bool touch(const PeerId& peer, SimTime now);

  /// Record the announced agent-version string (identify result).
  void set_agent(const PeerId& peer, Symbol agent, SimTime now);

  /// Replace the announced protocol set; diffs are reported to observers.
  /// `protocols` may be in any order and hold duplicates.
  void set_protocols(const PeerId& peer, const std::vector<Symbol>& protocols,
                     SimTime now);

  void add_address(const PeerId& peer, const Multiaddr& address, SimTime now);

  [[nodiscard]] const Entry* find(const PeerId& peer) const;
  [[nodiscard]] bool supports(const PeerId& peer, Symbol protocol) const;
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Unordered: callers needing an order sort the ids themselves.
  [[nodiscard]] const std::unordered_map<PeerId, Entry>& entries() const noexcept {
    return entries_;
  }

  void add_observer(PeerstoreObserver* observer) { observers_.push_back(observer); }
  void remove_observer(PeerstoreObserver* observer);

 private:
  Entry& get_or_create(const PeerId& peer, SimTime now);

  std::unordered_map<PeerId, Entry> entries_;
  std::vector<PeerstoreObserver*> observers_;
};

}  // namespace ipfs::p2p
