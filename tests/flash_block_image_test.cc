// Tests for the flat durable image: ascending iteration, lookups of absent
// LBAs, the checked at(), and overlays where the last write of an LBA wins.
#include <gtest/gtest.h>

#include <vector>

#include "flash/block_image.h"
#include "flash/lba_table.h"
#include "sim/check.h"

namespace bio::flash {
namespace {

using Entries = std::vector<BlockImage::Entry>;

Entries entries_of(const BlockImage& image) {
  return Entries(image.begin(), image.end());
}

TEST(BlockImageTest, OverlayIteratesInAscendingLbaOrder) {
  LbaTable<Version> base;
  for (Lba lba : {Lba{5000}, Lba{3}, Lba{1024}, Lba{70}}) base[lba] = lba + 1;
  const BlockImage image =
      BlockImage::overlay(base, {{900, 1}, {2, 2}, {5000, 3}, {99'999, 4}});
  EXPECT_EQ(entries_of(image), (Entries{{2, 2},
                                        {3, 4},
                                        {70, 71},
                                        {900, 1},
                                        {1024, 1025},
                                        {5000, 3},
                                        {99'999, 4}}));
}

TEST(BlockImageTest, AbsentLbasAreNotFound) {
  const BlockImage image({{10, 1}, {20, 2}, {30, 3}});
  for (Lba lba : {Lba{0}, Lba{15}, Lba{25}, Lba{31}, ~Lba{0}}) {
    EXPECT_EQ(image.find(lba), image.end()) << lba;
    EXPECT_FALSE(image.contains(lba)) << lba;
  }
  ASSERT_NE(image.find(20), image.end());
  EXPECT_EQ(image.find(20)->second, 2u);
  EXPECT_TRUE(image.contains(30));
  EXPECT_EQ(BlockImage().find(10), BlockImage().end());
  EXPECT_TRUE(BlockImage().empty());
}

TEST(BlockImageTest, AtOnAnAbsentLbaFailsCheck) {
  const BlockImage image({{10, 1}});
  EXPECT_EQ(image.at(10), 1u);
  EXPECT_THROW(image.at(11), bio::CheckFailure);
  EXPECT_THROW(BlockImage().at(0), bio::CheckFailure);
}

TEST(BlockImageTest, EntriesMustBeStrictlyAscending) {
  EXPECT_THROW(BlockImage({{2, 1}, {1, 1}}), bio::CheckFailure);
  EXPECT_THROW(BlockImage({{1, 1}, {1, 2}}), bio::CheckFailure);
}

TEST(BlockImageTest, LaterOverlayEntryForAnLbaIsKept) {
  const BlockImage base({{4, 1}, {8, 1}});
  const BlockImage image = BlockImage::overlay(
      base, {{8, 7}, {6, 2}, {8, 3}, {6, 9}, {4, 5}, {6, 4}});
  EXPECT_EQ(entries_of(image), (Entries{{4, 5}, {6, 4}, {8, 3}}));
  EXPECT_EQ(image.size(), 3u);
  EXPECT_EQ(entries_of(BlockImage::overlay(base, {})), entries_of(base));
}

}  // namespace
}  // namespace bio::flash
