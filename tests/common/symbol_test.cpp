#include "common/symbol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "p2p/protocols.hpp"

namespace ipfs::common {
namespace {

namespace proto = p2p::protocols;

/// Every p2p::protocols constant.
std::vector<Symbol> protocol_constants() {
  return {proto::kIdentify,    proto::kIdentifyPush, proto::kPing,
          proto::kKad,         proto::kLanKad,       proto::kBitswap,
          proto::kBitswap100,  proto::kBitswap110,   proto::kBitswap120,
          proto::kAutonat,     proto::kRelayV1,      proto::kRelayV2Stop,
          proto::kFetch,       proto::kFloodsub,     proto::kMeshsub10,
          proto::kMeshsub11,   proto::kDelta,        proto::kSbptp,
          proto::kSfst1,       proto::kSfst2,        proto::kIoiDial,
          proto::kIoiPortssub, proto::kX};
}

/// The protocol texts plus seeded random strings over a small alphabet, so
/// shared prefixes, exact prefixes and repeats are common.
std::vector<std::string> vocabulary() {
  std::vector<std::string> words;
  for (const Symbol protocol : protocol_constants()) words.push_back(protocol.str());
  Rng rng(20211203);
  for (int i = 0; i < 200; ++i) {
    std::string word;
    const auto length = rng.uniform_u64(8);
    for (std::uint64_t c = 0; c < length; ++c) {
      word.push_back("/ab0.\x7f\xe9"[rng.uniform_u64(7)]);
    }
    words.push_back(word);
    if (!word.empty() && rng.bernoulli(0.3)) {
      words.push_back(word.substr(0, word.size() - 1));  // an exact prefix
    }
  }
  return words;
}

TEST(Symbol, EqualTextGivesEqualHandle) {
  const std::string text = "go-ipfs/0.11.0/0c2f9d5";
  const Symbol a(text);
  const Symbol b(std::string_view("go-ipfs/0.11.0/0c2f9d5"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.view(), text);
  EXPECT_EQ(a.view().data(), b.view().data());  // one pooled copy
  EXPECT_NE(a, Symbol("go-ipfs/0.11.0/0c2f9d6"));
  EXPECT_EQ(Symbol(proto::kKad.view()), proto::kKad);
}

TEST(Symbol, DefaultIsEmpty) {
  const Symbol none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.view(), "");
  EXPECT_EQ(none.str(), "");
  EXPECT_EQ(none, Symbol(""));
  EXPECT_FALSE(Symbol("x").empty());
  EXPECT_LT(none, Symbol("x"));
}

TEST(Symbol, OrderingAgreesWithStringOrdering) {
  const std::vector<std::string> words = vocabulary();
  std::vector<Symbol> symbols;
  for (const std::string& word : words) symbols.emplace_back(word);
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (std::size_t j = 0; j < words.size(); ++j) {
      EXPECT_EQ(symbols[i] <=> symbols[j], words[i] <=> words[j])
          << '"' << words[i] << "\" vs \"" << words[j] << '"';
      EXPECT_EQ(symbols[i] == symbols[j], words[i] == words[j]);
    }
  }
  EXPECT_LT(proto::kBitswap, proto::kBitswap100);  // a prefix sorts first

  std::vector<std::string> strings = words;
  std::sort(strings.begin(), strings.end());
  std::sort(symbols.begin(), symbols.end());
  ASSERT_EQ(strings.size(), symbols.size());
  for (std::size_t i = 0; i < strings.size(); ++i) {
    EXPECT_EQ(symbols[i].view(), strings[i]);
  }
}

TEST(Symbol, ConcurrentInterningAgrees) {
  const std::vector<std::string> words = vocabulary();
  constexpr int kThreads = 4;
  std::vector<std::vector<Symbol>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&words, &out = seen[t], t] {
      // Each thread walks the vocabulary from its own offset, with fresh
      // strings nobody has interned yet mixed in, so first inserts race.
      out.resize(words.size());
      for (std::size_t i = 0; i < words.size(); ++i) {
        const std::size_t at = (i + static_cast<std::size_t>(t) * 97) % words.size();
        (void)Symbol("concurrent/" + std::to_string(i));
        out[at] = Symbol(words[at]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  for (std::size_t i = 0; i < words.size(); ++i) EXPECT_EQ(seen[0][i].view(), words[i]);
}

}  // namespace
}  // namespace ipfs::common
