// Flat LBA-indexed table for the device's per-LBA state (the FTL's mapping
// and folded durable map, the write-back cache's newest-dirty index).
//
// Entries live in fixed-size chunks of kChunkSize consecutive LBAs. A chunk
// is allocated (zero-filled) the first time an entry in it is inserted, so
// memory tracks the LBA ranges actually written, not the largest LBA: the
// only per-LBA cost of a far-away address is one directory pointer per
// chunk below it (8 bytes per 1024 LBAs). Lookups never allocate. LBAs at
// or above kLbaLimit (2^32 blocks = 16 TiB) are rejected on insert.
#pragma once

#include <array>
#include <bitset>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "flash/types.h"
#include "sim/check.h"

namespace bio::flash {

template <typename T>
class LbaTable {
 public:
  static constexpr unsigned kChunkBits = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr Lba kLbaLimit = Lba{1} << 32;

  /// The entry at `lba`, or nullptr if none was inserted (or it was erased).
  const T* find(Lba lba) const noexcept {
    const Chunk* c = chunk_of(lba);
    const std::size_t i = lba & (kChunkSize - 1);
    return c != nullptr && c->present[i] ? &c->values[i] : nullptr;
  }
  T* find(Lba lba) noexcept {
    return const_cast<T*>(std::as_const(*this).find(lba));
  }
  bool contains(Lba lba) const noexcept { return find(lba) != nullptr; }

  /// Entries present.
  std::size_t size() const noexcept { return size_; }

  /// The entry at `lba`, value-initialized first if absent.
  T& operator[](Lba lba) {
    BIO_CHECK_MSG(lba < kLbaLimit, "LBA beyond the table's bound");
    const std::size_t ci = static_cast<std::size_t>(lba >> kChunkBits);
    if (ci >= chunks_.size()) chunks_.resize(ci + 1);
    if (chunks_[ci] == nullptr) chunks_[ci] = std::make_unique<Chunk>();
    Chunk& c = *chunks_[ci];
    const std::size_t i = lba & (kChunkSize - 1);
    if (!c.present[i]) {
      c.present[i] = true;
      c.values[i] = T{};
      ++size_;
    }
    return c.values[i];
  }

  /// Removes the entry at `lba`, if any. The chunk stays allocated.
  void erase(Lba lba) noexcept {
    Chunk* c = chunk_of(lba);
    const std::size_t i = lba & (kChunkSize - 1);
    if (c == nullptr || !c->present[i]) return;
    c->present[i] = false;
    --size_;
  }

  /// Calls fn(lba, value) for every present entry, in ascending LBA order.
  template <typename F>
  void for_each(F&& fn) const {
    for (std::size_t ci = 0; ci < chunks_.size(); ++ci) {
      const Chunk* c = chunks_[ci].get();
      if (c == nullptr) continue;
      for (std::size_t i = 0; i < kChunkSize; ++i)
        if (c->present[i])
          fn(static_cast<Lba>((ci << kChunkBits) | i), c->values[i]);
    }
  }

  /// Chunks allocated so far (memory-footprint probe).
  std::size_t chunk_count() const noexcept {
    std::size_t n = 0;
    for (const auto& c : chunks_) n += c != nullptr ? 1 : 0;
    return n;
  }

 private:
  struct Chunk {
    std::array<T, kChunkSize> values{};
    std::bitset<kChunkSize> present;
  };

  Chunk* chunk_of(Lba lba) const noexcept {
    const Lba ci = lba >> kChunkBits;
    return ci < chunks_.size() ? chunks_[static_cast<std::size_t>(ci)].get()
                               : nullptr;
  }

  /// Indexed by lba >> kChunkBits; null until the chunk's first insert.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace bio::flash
