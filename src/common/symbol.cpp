#include "common/symbol.hpp"

#include <functional>
#include <mutex>
#include <unordered_set>

namespace ipfs::common {

namespace {

struct TextHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

struct Pool {
  std::mutex mutex;
  /// Node-based: a pooled string never moves, so handles stay valid.
  std::unordered_set<std::string, TextHash, std::equal_to<>> names;
};

Pool& pool() {
  // Never destroyed, so Symbols held by other static objects stay readable
  // during static destruction.  The pointer keeps it reachable for
  // LeakSanitizer.
  static Pool* const instance = new Pool;
  return *instance;
}

}  // namespace

Symbol::Symbol(std::string_view text) {
  if (text.empty()) return;
  Pool& names = pool();
  const std::lock_guard lock(names.mutex);
  auto it = names.names.find(text);
  if (it == names.names.end()) it = names.names.emplace(text).first;
  text_ = &*it;
}

}  // namespace ipfs::common
