#include "bitswap/bitswap.hpp"

#include <iterator>

#include "p2p/protocols.hpp"

namespace ipfs::bitswap {

void BitswapEngine::want_block(const p2p::PeerId& from, const Cid& cid,
                               std::function<void(const Cid&)> on_block) {
  wanted_[cid].push_back({from, std::move(on_block)});
  BitswapMessage message;
  message.wants.push_back({cid, /*cancel=*/false, /*want_have_only=*/false});
  send(from, std::move(message));
}

void BitswapEngine::cancel_wants(const p2p::PeerId& peer) {
  for (auto it = wanted_.begin(); it != wanted_.end();) {
    std::erase_if(it->second,
                  [&peer](const PendingWant& want) { return want.peer == peer; });
    it = it->second.empty() ? wanted_.erase(it) : std::next(it);
  }
}

bool BitswapEngine::handle_message(const p2p::PeerId& from,
                                   const net::Message& envelope) {
  if (!p2p::protocols::is_bitswap(envelope.protocol)) return false;
  const auto* message = std::any_cast<BitswapMessage>(&envelope.body);
  if (message == nullptr) return true;

  Ledger& ledger = ledgers_[from];

  // Serve wants we can satisfy; answer want-have probes either way.
  BitswapMessage reply;
  for (const WantEntry& want : message->wants) {
    if (want.cancel) continue;
    if (store_.contains(want.cid)) {
      if (want.want_have_only) {
        reply.have.push_back(want.cid);
      } else {
        reply.blocks.push_back(want.cid);
        ++ledger.blocks_sent;
        ledger.bytes_sent += kBlockSize;
      }
    } else {
      reply.dont_have.push_back(want.cid);
    }
  }

  // Accept blocks we asked for.
  for (const Cid& block : message->blocks) {
    const auto it = wanted_.find(block);
    if (it == wanted_.end()) continue;  // unsolicited block: drop
    ++ledger.blocks_received;
    ledger.bytes_received += kBlockSize;
    store_.insert(block);
    auto pending = std::move(it->second);
    wanted_.erase(it);
    for (PendingWant& want : pending) {
      if (want.callback) want.callback(block);
    }
  }

  if (!reply.blocks.empty() || !reply.have.empty() || !reply.dont_have.empty()) {
    send(from, std::move(reply));
  }
  return true;
}

const Ledger* BitswapEngine::ledger_for(const p2p::PeerId& peer) const {
  const auto it = ledgers_.find(peer);
  return it == ledgers_.end() ? nullptr : &it->second;
}

void BitswapEngine::send(const p2p::PeerId& to, BitswapMessage message) {
  net::Message envelope;
  envelope.protocol = p2p::protocols::kBitswap120.str();
  envelope.body = std::move(message);
  network_.send(self_, to, std::move(envelope));
}

}  // namespace ipfs::bitswap
