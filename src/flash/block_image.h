// A block-level durable image: the (lba -> version) content a power cut
// leaves behind (StorageDevice::durable_state(), SegmentLog's durable views)
// and what fs::Recovery rebuilds from it.
//
// The image is one flat vector of (lba, version) pairs sorted by LBA, built
// once and then only read. Lookups are a binary search; iteration is in
// ascending LBA order. An entry costs 16 bytes, against 40 or more for a
// hash-map node and its bucket, and the builders size the vector exactly,
// so an image of the whole aged device is one allocation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "flash/types.h"
#include "sim/check.h"

namespace bio::flash {

class BlockImage {
 public:
  using Entry = std::pair<Lba, Version>;
  using const_iterator = std::vector<Entry>::const_iterator;

  BlockImage() = default;

  /// Takes `entries`, which must be strictly ascending by LBA.
  explicit BlockImage(std::vector<Entry> entries)
      : entries_(std::move(entries)) {
    BIO_CHECK_MSG(std::adjacent_find(entries_.begin(), entries_.end(),
                                     [](const Entry& a, const Entry& b) {
                                       return a.first >= b.first;
                                     }) == entries_.end(),
                  "image entries not strictly ascending by LBA");
  }

  /// `base` with `writes` applied over it in order: of several writes to
  /// one LBA the last one wins. `base` is anything with size(),
  /// contains(lba) and for_each(fn(lba, version)) in ascending LBA order
  /// (an LbaTable<Version> or another image). One exact-size allocation
  /// for the result.
  template <typename Base>
  static BlockImage overlay(const Base& base, std::vector<Entry> writes);

  const_iterator begin() const noexcept { return entries_.begin(); }
  const_iterator end() const noexcept { return entries_.end(); }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  /// The entry of `lba`, or end().
  const_iterator find(Lba lba) const noexcept {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), lba,
        [](const Entry& e, Lba key) { return e.first < key; });
    return it != entries_.end() && it->first == lba ? it : entries_.end();
  }
  bool contains(Lba lba) const noexcept { return find(lba) != end(); }
  /// The version at `lba`, which must be present.
  Version at(Lba lba) const {
    const auto it = find(lba);
    BIO_CHECK_MSG(it != end(), "LBA not in the image");
    return it->second;
  }

  /// Calls fn(lba, version) in ascending LBA order (an image can be the
  /// base of another overlay).
  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& [lba, v] : entries_) fn(lba, v);
  }

  bool operator==(const BlockImage&) const = default;

 private:
  std::vector<Entry> entries_;
};

template <typename Base>
BlockImage BlockImage::overlay(const Base& base, std::vector<Entry> writes) {
  // Sort the writes by LBA, keeping write order within an LBA, then keep
  // each LBA's last write.
  std::stable_sort(
      writes.begin(), writes.end(),
      [](const Entry& a, const Entry& b) { return a.first < b.first; });
  auto kept = writes.begin();
  for (auto it = writes.begin(); it != writes.end(); ++it)
    if (std::next(it) == writes.end() || std::next(it)->first != it->first)
      *kept++ = *it;
  writes.erase(kept, writes.end());

  std::size_t added = 0;
  for (const Entry& w : writes) added += base.contains(w.first) ? 0 : 1;
  std::vector<Entry> out;
  out.reserve(base.size() + added);
  auto w = writes.cbegin();
  base.for_each([&](Lba lba, Version v) {
    for (; w != writes.cend() && w->first < lba; ++w) out.push_back(*w);
    if (w != writes.cend() && w->first == lba)
      out.push_back(*w++);
    else
      out.emplace_back(lba, v);
  });
  out.insert(out.end(), w, writes.cend());
  BlockImage image;
  image.entries_ = std::move(out);  // ascending by construction
  return image;
}

}  // namespace bio::flash
