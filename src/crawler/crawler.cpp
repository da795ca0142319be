#include "crawler/crawler.hpp"

#include "common/stats.hpp"
#include "p2p/protocols.hpp"

namespace ipfs::crawler {

namespace proto = p2p::protocols;

Crawler::Crawler(sim::Simulation& simulation, net::Network& network, p2p::PeerId id,
                 p2p::Multiaddr address, CrawlerConfig config)
    : simulation_(simulation),
      network_(network),
      config_(config),
      swarm_(simulation, id, address,
             p2p::Swarm::Config{p2p::ConnManagerConfig::with_watermarks(0, 0),
                                /*trim_enabled=*/false}) {}

void Crawler::start() { network_.add_host(*this); }

void Crawler::stop() {
  if (periodic_task_ != sim::kInvalidTask) {
    simulation_.cancel(periodic_task_);
    periodic_task_ = sim::kInvalidTask;
  }
  network_.remove_host(swarm_.local_id());
}

void Crawler::crawl(const std::vector<p2p::PeerId>& bootstrap,
                    std::function<void(CrawlResult)> done) {
  if (crawling_) return;  // one crawl at a time
  crawling_ = true;
  current_ = CrawlResult{};
  current_.started = simulation_.now();
  done_ = std::move(done);
  frontier_.clear();
  enqueued_.clear();
  visiting_.clear();
  pending_requests_.clear();
  for (const p2p::PeerId& peer : bootstrap) enqueue(peer);
  visit_next();
}

void Crawler::crawl_periodically(const std::vector<p2p::PeerId>& bootstrap,
                                 common::SimDuration interval) {
  auto run = [this, bootstrap] {
    crawl(bootstrap, [this](CrawlResult result) { history_.push_back(result); });
  };
  run();
  periodic_task_ = simulation_.schedule_every(interval, run);
}

std::pair<std::size_t, std::size_t> Crawler::reached_min_max() const {
  common::MinMaxBand band;
  for (const CrawlResult& result : history_) {
    band.add(result.reached.size(), result.reached.size());
  }
  return band.band();
}

void Crawler::enqueue(const p2p::PeerId& peer) {
  if (peer == swarm_.local_id()) return;
  if (!enqueued_.insert(peer).second) return;
  current_.learned.insert(peer);
  frontier_.push_back(peer);
}

void Crawler::visit_next() {
  if (!crawling_) return;
  while (visiting_.size() < config_.max_in_flight && !frontier_.empty()) {
    const p2p::PeerId peer = frontier_.back();
    frontier_.pop_back();
    begin_visit(peer);
  }
  if (visiting_.empty() && frontier_.empty()) {
    // Crawl complete.
    crawling_ = false;
    current_.finished = simulation_.now();
    if (sink_ != nullptr) {
      sink_->on_crawl({current_.finished, current_.reached.size(),
                       current_.learned.size()});
    }
    auto done = std::move(done_);
    if (done) done(current_);
  }
}

void Crawler::begin_visit(const p2p::PeerId& peer) {
  visiting_.emplace(peer, Visit{});
  // A leftover connection from a previous crawl can be reused directly.
  if (network_.connected(swarm_.local_id(), peer)) {
    send_probes(peer);
    return;
  }
  network_.dial(swarm_.local_id(), peer, [this, peer](bool ok) {
    if (!crawling_) return;
    const auto it = visiting_.find(peer);
    if (it == visiting_.end()) return;
    if (!ok) {
      ++current_.dial_failures;
      visiting_.erase(it);
      visit_next();
      return;
    }
    send_probes(peer);
  });
}

void Crawler::send_probes(const p2p::PeerId& peer) {
  const auto it = visiting_.find(peer);
  if (it == visiting_.end()) return;
  // Dump the routing table with prefix-targeted probes.
  Visit& visit = it->second;
  for (std::size_t depth = 0; depth < config_.bucket_probes; ++depth) {
    const std::uint64_t request_id = next_request_id_++;
    pending_requests_[request_id] = peer;
    ++visit.outstanding;
    ++current_.queries_sent;
    dht::FindNodeRequest request;
    // Derive a probe target deterministically from the peer and depth so
    // successive probes land in different buckets of the target peer.
    request.target = p2p::PeerId::from_seed(
        common::mix64(peer.prefix64(), 0x9e3779b97f4a7c15ULL * (depth + 1)));
    request.request_id = request_id;
    net::Message message;
    message.protocol = proto::kKad.str();
    message.body = request;
    network_.send(swarm_.local_id(), peer, std::move(message));

    simulation_.schedule_after(config_.request_timeout, [this, request_id] {
      const auto pending_it = pending_requests_.find(request_id);
      if (pending_it == pending_requests_.end()) return;
      const p2p::PeerId timed_out_peer = pending_it->second;
      pending_requests_.erase(pending_it);
      const auto visit_it = visiting_.find(timed_out_peer);
      if (visit_it == visiting_.end()) return;
      if (--visit_it->second.outstanding == 0) finish_visit(timed_out_peer);
    });
  }
}

bool Crawler::accept_inbound(const p2p::PeerId& from) {
  (void)from;
  return false;
}

void Crawler::finish_visit(const p2p::PeerId& peer) {
  visiting_.erase(peer);
  network_.disconnect(swarm_.local_id(), peer);  // query done: close (§IV-A)
  visit_next();
}

void Crawler::handle_message(const p2p::PeerId& from, const net::Message& message) {
  if (message.protocol != proto::kKad.view()) return;
  const auto* response = std::any_cast<dht::FindNodeResponse>(&message.body);
  if (response == nullptr) return;
  const auto pending_it = pending_requests_.find(response->request_id);
  if (pending_it == pending_requests_.end()) return;
  pending_requests_.erase(pending_it);

  current_.reached.insert(from);
  for (const p2p::PeerId& peer : response->closer_peers) enqueue(peer);

  const auto visit_it = visiting_.find(from);
  if (visit_it != visiting_.end() && --visit_it->second.outstanding == 0) {
    finish_visit(from);
  }
  visit_next();
}

}  // namespace ipfs::crawler
