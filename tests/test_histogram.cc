#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/histogram.hh"
#include "util/logging.hh"

namespace flash::util
{
namespace
{

TEST(Histogram, EmptyTotals)
{
    Histogram h(-5, 5);
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.countAtOrBelow(0), 0u);
    EXPECT_EQ(h.countAbove(0), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, BasicCounts)
{
    Histogram h(0, 10);
    h.add(3);
    h.add(3);
    h.add(7);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.binCount(3), 2u);
    EXPECT_EQ(h.binCount(7), 1u);
    EXPECT_EQ(h.binCount(5), 0u);
}

TEST(Histogram, PrefixSums)
{
    Histogram h(0, 10);
    for (int v : {1, 2, 2, 5, 9})
        h.add(v);
    EXPECT_EQ(h.countAtOrBelow(0), 0u);
    EXPECT_EQ(h.countAtOrBelow(1), 1u);
    EXPECT_EQ(h.countAtOrBelow(2), 3u);
    EXPECT_EQ(h.countAtOrBelow(4), 3u);
    EXPECT_EQ(h.countAtOrBelow(5), 4u);
    EXPECT_EQ(h.countAtOrBelow(100), 5u);
    EXPECT_EQ(h.countAbove(2), 2u);
    EXPECT_EQ(h.countAbove(-10), 5u);
}

TEST(Histogram, BelowRangeQueries)
{
    Histogram h(5, 10);
    h.add(6);
    EXPECT_EQ(h.countAtOrBelow(4), 0u);
    EXPECT_EQ(h.countAtOrBelow(2), 0u);
    EXPECT_EQ(h.countAbove(4), 1u);
}

TEST(Histogram, ClampsOutOfRangeValues)
{
    Histogram h(0, 10);
    h.add(-100);
    h.add(100);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(10), 1u);
    EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, PrefixRebuildsAfterAdd)
{
    Histogram h(0, 4);
    h.add(1);
    EXPECT_EQ(h.countAtOrBelow(1), 1u); // builds prefix
    h.add(1);
    EXPECT_EQ(h.countAtOrBelow(1), 2u); // must rebuild
}

TEST(Histogram, Mean)
{
    Histogram h(-10, 10);
    h.add(-2);
    h.add(2);
    h.add(3);
    EXPECT_DOUBLE_EQ(h.mean(), 1.0);
}

TEST(Histogram, BatchAdd)
{
    Histogram h(0, 3);
    h.add(std::vector<int>{0, 1, 2, 3, 3});
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.binCount(3), 2u);
}

TEST(Histogram, AddWithCountEqualsRepeatedAdds)
{
    Histogram a(-5, 5), b(-5, 5);
    a.add(2, 3);
    a.add(-9, 2); // clamped to -5
    for (int i = 0; i < 3; ++i)
        b.add(2);
    b.add(-9);
    b.add(-9);
    EXPECT_EQ(a.total(), b.total());
    for (int v = -6; v <= 6; ++v)
        EXPECT_EQ(a.countAtOrBelow(v), b.countAtOrBelow(v)) << v;
}

TEST(Histogram, MoveMatchesRebuiltCounts)
{
    // Moves made after the prefix sums were built and before must both
    // equal a fresh histogram, including moves from and to clamped
    // values.
    const std::vector<std::pair<int, int>> moves = {
        {0, 4}, {4, -3}, {-20, 7}, {7, 30}, {30, -30}, {2, 2}};
    for (const bool prefix_built : {true, false}) {
        Histogram h(-10, 10), want(-10, 10);
        for (const auto &[from, to] : moves) {
            h.add(from);
            want.add(to);
        }
        if (prefix_built)
            h.countAtOrBelow(0);
        for (const auto &[from, to] : moves)
            h.move(from, to);
        EXPECT_EQ(h.total(), want.total());
        for (int v = -11; v <= 11; ++v) {
            EXPECT_EQ(h.countAtOrBelow(v), want.countAtOrBelow(v))
                << "v " << v << (prefix_built ? " after" : " before");
        }
    }
}

TEST(Histogram, MoveFromEmptyBinPanics)
{
    // An unsigned bin must not wrap: a move out of an empty bin is a
    // caller bug and leaves the histogram untouched.
    Histogram h(0, 10);
    h.add(3);
    EXPECT_THROW(h.move(5, 3), PanicError);
    EXPECT_THROW(h.move(-4, 3), PanicError); // clamps to the empty bin 0
    EXPECT_EQ(h.binCount(5), 0u);
    EXPECT_EQ(h.binCount(3), 1u);
    EXPECT_EQ(h.countAtOrBelow(4), 1u);
    h.move(3, 5);
    EXPECT_THROW(h.move(3, 5), PanicError);
    EXPECT_EQ(h.binCount(5), 1u);
}

TEST(Histogram, SingleBinRange)
{
    Histogram h(7, 7);
    h.add(7);
    h.add(9);
    EXPECT_EQ(h.total(), 2u);
    EXPECT_EQ(h.countAtOrBelow(7), 2u);
    EXPECT_EQ(h.countAtOrBelow(6), 0u);
}

TEST(Histogram, BadRangeFatal)
{
    EXPECT_THROW(Histogram(5, 4), FatalError);
}

TEST(Histogram, LoHiAccessors)
{
    Histogram h(-3, 9);
    EXPECT_EQ(h.lo(), -3);
    EXPECT_EQ(h.hi(), 9);
}

} // namespace
} // namespace flash::util
