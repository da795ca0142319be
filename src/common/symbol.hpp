// Interned names: the agent-version and protocol strings of §IV-B.
//
// A campaign stores the same few hundred agent strings and ~100 protocol
// names once per peer in the population, in every vantage's peerstore and
// in every dataset record.  `Symbol` keeps one immortal copy of each
// distinct text in a process-wide pool and hands out a pointer-sized
// handle to it (DESIGN.md §16):
//
//   - equal text gives an equal handle, so `==` is a pointer compare;
//   - `<=>` compares the *text*, so sorted containers of Symbols keep the
//     lexicographic order a container of `std::string`s would have;
//   - interning takes a mutex; reading a Symbol takes none, because the
//     pooled text is never freed or changed.
#pragma once

#include <compare>
#include <string>
#include <string_view>

namespace ipfs::common {

class Symbol {
 public:
  /// The empty name.
  constexpr Symbol() noexcept = default;

  /// Intern `text`.  Thread-safe; takes the pool's mutex.
  explicit Symbol(std::string_view text);

  [[nodiscard]] std::string_view view() const noexcept {
    return text_ == nullptr ? std::string_view() : std::string_view(*text_);
  }
  [[nodiscard]] std::string str() const { return std::string(view()); }
  [[nodiscard]] bool empty() const noexcept { return text_ == nullptr; }

  friend bool operator==(Symbol a, Symbol b) noexcept { return a.text_ == b.text_; }
  friend std::strong_ordering operator<=>(Symbol a, Symbol b) noexcept {
    if (a.text_ == b.text_) return std::strong_ordering::equal;
    return a.view() <=> b.view();
  }

 private:
  const std::string* text_ = nullptr;  ///< pooled text; null for the empty name
};

}  // namespace ipfs::common
