// The identify protocol (/ipfs/id/1.0.0 and /ipfs/id/push/1.0.0).
//
// Identify is how the paper's measurement nodes learn everything in
// §IV-B: agent-version strings, supported protocols and multiaddresses all
// arrive via identify exchanges shortly after a connection opens, and later
// changes arrive via identify *push*.  A peer whose connection dies before
// identify completes stays in the dataset with no version string — the
// paper's 3'059 "missing" agents.
#pragma once

#include <vector>

#include "common/symbol.hpp"
#include "p2p/multiaddr.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::node {

/// The payload both sides exchange after connecting (and push on change).
struct IdentifySnapshot {
  common::Symbol agent;
  std::vector<common::Symbol> protocols;  ///< sorted by text, unique
  p2p::Multiaddr listen_address;
  bool is_push = false;
};

/// Ping RPC bodies (/ipfs/ping/1.0.0).
struct PingRequest {
  std::uint64_t nonce = 0;
};
struct PingResponse {
  std::uint64_t nonce = 0;
};

}  // namespace ipfs::node
