// Tests for the flat LBA-indexed table behind the FTL map and the cache's
// newest-dirty index: sparse far-apart LBAs, chunk boundaries, lookups that
// must not allocate, erase/reinsert, and the LBA bound.
#include <gtest/gtest.h>

#include <cstdint>

#include "flash/lba_table.h"
#include "sim/check.h"

namespace bio::flash {
namespace {

struct Entry {
  std::uint64_t a = 7;  // non-zero default: inserts value-initialize
  std::uint64_t b = 0;
};
using Table = LbaTable<Entry>;
constexpr Lba kChunk = Table::kChunkSize;

TEST(LbaTableTest, FarApartAndChunkBoundaryLbas) {
  Table t;
  const Lba lbas[] = {0,          kChunk - 1,     kChunk,
                      2 * kChunk - 1, 40 * kChunk + 5, 3'000'000};
  for (Lba lba : lbas) t[lba].b = lba + 1;
  EXPECT_EQ(t.chunk_count(), 4u) << "chunks follow the touched ranges";
  for (Lba lba : lbas) {
    const Entry* e = t.find(lba);
    ASSERT_NE(e, nullptr) << lba;
    EXPECT_EQ(e->a, 7u);
    EXPECT_EQ(e->b, lba + 1);
  }
  // Neighbours inside allocated chunks are still absent.
  for (Lba lba : {Lba{1}, kChunk - 2, kChunk + 1, 40 * kChunk + 4,
                  Lba{2'999'999}})
    EXPECT_EQ(t.find(lba), nullptr) << lba;
}

TEST(LbaTableTest, LookupsOfUntouchedLbasReturnNothingAndAllocateNothing) {
  Table t;
  for (Lba lba : {Lba{0}, Lba{123'456}, Table::kLbaLimit - 1,
                  Table::kLbaLimit, ~Lba{0}})
    EXPECT_EQ(t.find(lba), nullptr) << lba;
  EXPECT_EQ(t.chunk_count(), 0u);
  t[10].b = 1;
  EXPECT_EQ(t.find(5 * kChunk), nullptr);
  EXPECT_EQ(t.find(Table::kLbaLimit - 1), nullptr);
  t.erase(9 * kChunk);  // erase of an untouched LBA is a no-op
  EXPECT_EQ(t.chunk_count(), 1u);
  EXPECT_NE(t.find(10), nullptr);
}

TEST(LbaTableTest, EraseThenReinsertStartsFromDefault) {
  Table t;
  t[kChunk + 3] = Entry{1, 2};
  t.erase(kChunk + 3);
  EXPECT_EQ(t.find(kChunk + 3), nullptr);
  EXPECT_EQ(t.chunk_count(), 1u) << "the chunk stays for later inserts";
  const Entry& e = t[kChunk + 3];
  EXPECT_EQ(e.a, 7u);
  EXPECT_EQ(e.b, 0u);
  EXPECT_EQ(t.find(kChunk + 3), &e);
}

TEST(LbaTableTest, LbaAboveTheBoundFailsCheckAndDoesNotAllocate) {
  Table t;
  EXPECT_THROW(t[Table::kLbaLimit], bio::CheckFailure);
  EXPECT_THROW(t[~Lba{0}], bio::CheckFailure);
  EXPECT_EQ(t.chunk_count(), 0u);
  EXPECT_EQ(t.find(Table::kLbaLimit), nullptr);
}

}  // namespace
}  // namespace bio::flash
