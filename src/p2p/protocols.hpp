// Well-known libp2p/IPFS protocol identifiers observed by the paper
// (Fig. 4) plus helpers for the role semantics attached to them.
//
// The constants are interned once, at start-up, so code that announces or
// compares them never takes the Symbol pool's lock (DESIGN.md §16).
#pragma once

#include <string_view>

#include "common/symbol.hpp"

namespace ipfs::p2p::protocols {

inline const common::Symbol kIdentify{"/ipfs/id/1.0.0"};
inline const common::Symbol kIdentifyPush{"/ipfs/id/push/1.0.0"};
inline const common::Symbol kPing{"/ipfs/ping/1.0.0"};
inline const common::Symbol kKad{"/ipfs/kad/1.0.0"};
inline const common::Symbol kLanKad{"/ipfs/lan/kad/1.0.0"};
inline const common::Symbol kBitswap{"/ipfs/bitswap"};
inline const common::Symbol kBitswap100{"/ipfs/bitswap/1.0.0"};
inline const common::Symbol kBitswap110{"/ipfs/bitswap/1.1.0"};
inline const common::Symbol kBitswap120{"/ipfs/bitswap/1.2.0"};
inline const common::Symbol kAutonat{"/libp2p/autonat/1.0.0"};
inline const common::Symbol kRelayV1{"/libp2p/circuit/relay/0.1.0"};
inline const common::Symbol kRelayV2Stop{"/libp2p/circuit/relay/0.2.0/stop"};
inline const common::Symbol kFetch{"/libp2p/fetch/0.0.1"};
inline const common::Symbol kFloodsub{"/floodsub/1.0.0"};
inline const common::Symbol kMeshsub10{"/meshsub/1.0.0"};
inline const common::Symbol kMeshsub11{"/meshsub/1.1.0"};
inline const common::Symbol kDelta{"/p2p/id/delta/1.0.0"};
// Protocols the paper flags as curiosities (§IV-B): the storm botnet's
// private protocols and the "ioi" agent's custom ones.
inline const common::Symbol kSbptp{"/sbptp/1.0.0"};
inline const common::Symbol kSfst1{"/sfst/1.0.0"};
inline const common::Symbol kSfst2{"/sfst/2.0.0"};
inline const common::Symbol kIoiDial{"/ioi/dial/1.0.0"};
inline const common::Symbol kIoiPortssub{"/ioi/portssub/1.0.0"};
inline const common::Symbol kX{"/x/"};

/// True when supporting `protocol` marks a peer as a DHT server; the paper
/// identifies DHT servers by their /ipfs/kad/1.0.0 announcement (§IV-B).
[[nodiscard]] inline bool marks_dht_server(common::Symbol protocol) noexcept {
  return protocol == kKad;
}

/// True for any /ipfs/bitswap variant (announced, or on a message).
[[nodiscard]] inline bool is_bitswap(std::string_view protocol) noexcept {
  return protocol.starts_with(kBitswap.view());
}

}  // namespace ipfs::p2p::protocols
