// Process-wide memo of immutable values keyed by the exact bits of their
// inputs.
//
// Each key owns a once_flag, so concurrent first use of one key computes
// exactly once (other callers wait on it) while distinct keys compute in
// parallel.  The map mutex is held only for lookups, never during the
// (slow) computation.  Entries live until clear(); outstanding shared_ptrs
// stay valid after it.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace dvs {

/// Counters of one memo: `entries` counts distinct keys; computations the
/// caller could not key (see Memo::count_uncached) count as misses.
struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
};

/// Appends `v` to a key as fixed-width hex, so keys are bit-exact.
inline void append_key_u64(std::string& key, std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx.", static_cast<unsigned long long>(v));
  key += buf;
}

/// Appends the bit pattern of `v`: two keys match only when their inputs
/// are bit-for-bit identical.
inline void append_key_double(std::string& key, double v) {
  append_key_u64(key, std::bit_cast<std::uint64_t>(v));
}

template <typename T>
class Memo {
 public:
  /// The value for `key`, made on first use by `make()`, which returns a
  /// std::shared_ptr<const T>.
  template <typename Make>
  std::shared_ptr<const T> get(const std::string& key, Make&& make) {
    std::shared_ptr<Entry> entry;
    {
      std::lock_guard<std::mutex> lock{mu_};
      std::shared_ptr<Entry>& slot = entries_[key];
      if (!slot) {
        slot = std::make_shared<Entry>();
        ++misses_;
      } else {
        ++hits_;
      }
      entry = slot;
    }
    std::call_once(entry->once, [&] { entry->value = make(); });
    return entry->value;
  }

  /// Records a computation done outside the memo (no key) as a miss.
  void count_uncached() {
    std::lock_guard<std::mutex> lock{mu_};
    ++misses_;
  }

  [[nodiscard]] MemoStats stats() {
    std::lock_guard<std::mutex> lock{mu_};
    return {hits_, misses_, entries_.size()};
  }

  /// Drops every entry and zeroes the stats.
  void clear() {
    std::lock_guard<std::mutex> lock{mu_};
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
  }

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const T> value;
  };

  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace dvs
