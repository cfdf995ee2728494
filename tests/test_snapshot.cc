#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "nandsim/snapshot.hh"
#include "test_support.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace flash::nand
{
namespace
{

class SnapshotTest : public ::testing::Test
{
  protected:
    SnapshotTest() : chip(tinyQlcGeometry(), qlcVoltageParams(), 31)
    {
        chip.setPeCycles(0, 3000);
        chip.age(0, 8760.0, 25.0);
    }

    Chip chip;
};

TEST_F(SnapshotTest, CellCountsMatchRegions)
{
    const auto data = WordlineSnapshot::dataRegion(chip, 0, 0, 1);
    EXPECT_EQ(data.cells(),
              static_cast<std::uint64_t>(chip.geometry().dataBitlines));
    const auto full = WordlineSnapshot::fullWordline(chip, 0, 0, 1);
    EXPECT_EQ(full.cells(),
              static_cast<std::uint64_t>(chip.geometry().bitlines()));

    std::uint64_t per_state = 0;
    for (int s = 0; s < data.states(); ++s)
        per_state += data.cellsInState(s);
    EXPECT_EQ(per_state, data.cells());
}

TEST_F(SnapshotTest, UpDownErrorsMatchBruteForce)
{
    const std::uint64_t seq = 42;
    const auto snap = WordlineSnapshot(chip, 0, 3, seq, 0, 2048);
    const WordlineContext ctx = chip.wordlineContext(0, 3);

    for (int k : {1, 4, 8, 15}) {
        const int v = chip.model().defaultVoltage(k);
        std::uint64_t up = 0, down = 0;
        for (int col = 0; col < 2048; ++col) {
            const int s = chip.trueState(0, 3, col);
            const double vth =
                chip.cellVth(ctx, 0, 3, col, s, seq);
            const int vi = static_cast<int>(std::lround(vth));
            if (s == k - 1 && vi > v)
                ++up;
            if (s == k && vi <= v)
                ++down;
        }
        EXPECT_EQ(snap.upErrors(k, v), up) << "k=" << k;
        EXPECT_EQ(snap.downErrors(k, v), down) << "k=" << k;
    }
}

TEST_F(SnapshotTest, PageErrorsMatchExactChipRead)
{
    // The snapshot's region-based counting must agree with the
    // cell-by-cell page read at the same read sequence.
    const std::uint64_t seq = 77;
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 1, seq);
    const auto v = chip.model().defaultVoltages();
    for (int page = 0; page < chip.geometry().pagesPerWordline(); ++page) {
        EXPECT_EQ(snap.pageErrors(page, v),
                  test::pageBitErrors(chip, 0, 1, page, v, seq))
            << "page " << page;
    }
}

TEST_F(SnapshotTest, PageErrorsMatchExactReadAtTunedVoltages)
{
    const std::uint64_t seq = 78;
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 2, seq);
    auto v = chip.model().defaultVoltages();
    for (std::size_t k = 1; k < v.size(); ++k)
        v[k] -= 15;
    for (int page = 0; page < chip.geometry().pagesPerWordline(); ++page) {
        EXPECT_EQ(snap.pageErrors(page, v),
                  test::pageBitErrors(chip, 0, 2, page, v, seq))
            << "page " << page;
    }
}

TEST_F(SnapshotTest, BoundaryErrorsAreUpPlusDown)
{
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 0, 5);
    const int v = chip.model().defaultVoltage(8);
    EXPECT_EQ(snap.boundaryErrors(8, v),
              snap.upErrors(8, v) + snap.downErrors(8, v));
}

TEST_F(SnapshotTest, UpErrorsMonotoneInThreshold)
{
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 0, 5);
    const int v = chip.model().defaultVoltage(8);
    // Raising the threshold can only reduce up errors and increase
    // down errors.
    EXPECT_GE(snap.upErrors(8, v - 10), snap.upErrors(8, v + 10));
    EXPECT_LE(snap.downErrors(8, v - 10), snap.downErrors(8, v + 10));
}

TEST_F(SnapshotTest, CellsInVthRange)
{
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 0, 5);
    const int lo = chip.model().vthMin();
    const int hi = chip.model().vthMax();
    EXPECT_EQ(snap.cellsInVthRange(lo - 1, hi), snap.cells());
    EXPECT_EQ(snap.cellsInVthRange(5, 5), 0u);
    // Swapped bounds behave the same.
    EXPECT_EQ(snap.cellsInVthRange(100, 0), snap.cellsInVthRange(0, 100));
    // Additivity.
    EXPECT_EQ(snap.cellsInVthRange(0, 50) + snap.cellsInVthRange(50, 100),
              snap.cellsInVthRange(0, 100));
}

TEST_F(SnapshotTest, StateCellsInRange)
{
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 0, 5);
    std::uint64_t total = 0;
    const int lo = chip.model().vthMin();
    const int hi = chip.model().vthMax();
    for (int s = 0; s < snap.states(); ++s)
        total += snap.stateCellsInRange(s, lo - 1, hi);
    EXPECT_EQ(total, snap.cells());
}

TEST_F(SnapshotTest, DifferentReadSeqGivesSlightlyDifferentCounts)
{
    const auto a = WordlineSnapshot::dataRegion(chip, 0, 0, 100);
    const auto b = WordlineSnapshot::dataRegion(chip, 0, 0, 101);
    const int v = chip.model().defaultVoltage(8);
    // Same static field, fresh sensing noise: counts close, usually
    // not identical (the paper's read-to-read RBER noise).
    const auto ea = a.boundaryErrors(8, v);
    const auto eb = b.boundaryErrors(8, v);
    const double rel = std::abs(static_cast<double>(ea)
                                - static_cast<double>(eb))
        / std::max<double>(1.0, static_cast<double>(ea));
    EXPECT_LT(rel, 0.5);
}

TEST_F(SnapshotTest, SentinelRegionSnapshotSeesOnlyTwoStates)
{
    SentinelOverlay o;
    o.start = chip.geometry().bitlines() - 64;
    o.count = 64;
    o.lowState = 7;
    o.highState = 8;
    WordlineContent c;
    c.dataSeed = 5;
    c.sentinels = o;
    chip.programWordline(0, 4, c);

    const WordlineSnapshot snap(chip, 0, 4, 9, o.start, o.start + o.count);
    EXPECT_EQ(snap.cells(), 64u);
    EXPECT_EQ(snap.cellsInState(7), 32u);
    EXPECT_EQ(snap.cellsInState(8), 32u);
    EXPECT_EQ(snap.cellsInState(0), 0u);
}

TEST_F(SnapshotTest, BadArgumentsFatal)
{
    EXPECT_THROW(WordlineSnapshot(chip, 0, 0, 1, -1, 10), util::FatalError);
    EXPECT_THROW(WordlineSnapshot(chip, 0, 0, 1, 10, 5), util::FatalError);
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 0, 1);
    EXPECT_THROW(snap.upErrors(0, 0), util::FatalError);
    EXPECT_THROW(snap.upErrors(16, 0), util::FatalError);
    EXPECT_THROW(snap.cellsInState(-1), util::FatalError);
}

/// @name Lazy snapshot equivalence
/// A lazy snapshot must answer every query exactly as the eager one,
/// whatever thresholds it is asked about and in whatever order.
/// @{

enum class Order
{
    Ascending,
    Random,
};

/**
 * Sweep v over [vthMin - 2, vthMax + 2] and compare every query of a
 * lazy snapshot with an eager one of the same columns and read
 * sequence. Returns the number of mismatches; @p first describes the
 * first one.
 */
std::uint64_t
lazyMismatches(const Chip &chip, int block, int wl, std::uint64_t seq,
               int col_begin, int col_end, Order order, std::string &first)
{
    const WordlineSnapshot eager(chip, block, wl, seq, col_begin, col_end);
    const WordlineSnapshot lazy(chip, block, wl, seq, col_begin, col_end,
                                WordlineSnapshot::Lazy{});
    std::uint64_t bad = 0;
    const auto check = [&](const char *what, int v, int arg,
                           std::uint64_t want, std::uint64_t got) {
        if (want == got)
            return;
        if (bad++ == 0) {
            std::ostringstream os;
            os << what << "(" << arg << ", v=" << v << "): eager " << want
               << " lazy " << got;
            first = os.str();
        }
    };

    check("cells", 0, 0, eager.cells(), lazy.cells());
    for (int s = 0; s < eager.states(); ++s)
        check("cellsInState", 0, s, eager.cellsInState(s),
              lazy.cellsInState(s));

    std::vector<int> vs;
    for (int v = chip.model().vthMin() - 2; v <= chip.model().vthMax() + 2;
         ++v) {
        vs.push_back(v);
    }
    if (order == Order::Random) {
        util::Rng rng(seq ^ 0x5eedULL);
        for (std::size_t i = vs.size() - 1; i > 0; --i)
            std::swap(vs[i], vs[rng.uniformInt(i + 1)]);
    }

    const auto defaults = chip.model().defaultVoltages();
    const int pages = chip.geometry().pagesPerWordline();
    for (const int v : vs) {
        for (int k = 1; k < eager.states(); ++k) {
            check("upErrors", v, k, eager.upErrors(k, v),
                  lazy.upErrors(k, v));
            check("downErrors", v, k, eager.downErrors(k, v),
                  lazy.downErrors(k, v));
            check("boundaryErrors", v, k, eager.boundaryErrors(k, v),
                  lazy.boundaryErrors(k, v));
        }
        for (int s = 0; s < eager.states(); ++s) {
            check("stateCellsInRange", v, s,
                  eager.stateCellsInRange(s, v, v + 9),
                  lazy.stateCellsInRange(s, v, v + 9));
        }
        check("cellsInVthRange", v, 0, eager.cellsInVthRange(v - 17, v),
              lazy.cellsInVthRange(v - 17, v));
        // A default set shifted by a v-dependent offset, and a set with
        // every boundary at v.
        std::vector<int> shifted(defaults), flat(defaults.size(), v);
        for (std::size_t k = 1; k < shifted.size(); ++k)
            shifted[k] += (v % 61) - 30;
        for (int page = 0; page < pages; ++page) {
            check("pageErrors(shifted)", v, page,
                  eager.pageErrors(page, shifted),
                  lazy.pageErrors(page, shifted));
            check("pageErrors(flat)", v, page, eager.pageErrors(page, flat),
                  lazy.pageErrors(page, flat));
        }
    }
    return bad;
}

/** lazyMismatches() in both orders, as one expectation each. */
void
expectLazyMatchesEager(const Chip &chip, int block, int wl,
                       std::uint64_t seq, int col_begin, int col_end)
{
    for (const Order order : {Order::Ascending, Order::Random}) {
        std::string first;
        EXPECT_EQ(lazyMismatches(chip, block, wl, seq, col_begin, col_end,
                                 order, first),
                  0u)
            << "block " << block << " wl " << wl << " cols [" << col_begin
            << ", " << col_end << ") "
            << (order == Order::Ascending ? "ascending" : "random")
            << ": " << first;
    }
}

/** A chip with a fresh, an aged and a read-disturbed block. */
Chip
wornChip(bool tlc, VoltageModelParams params)
{
    Chip chip(tlc ? test::mediumTlcGeometry() : test::mediumQlcGeometry(),
              params, tlc ? 71 : 72);
    chip.setPeCycles(1, 5000);
    chip.age(1, 8760.0, 25.0);
    chip.setPeCycles(2, 3000);
    chip.recordReads(2, 2000000);
    return chip;
}

TEST(LazySnapshot, MatchesEagerOnFreshAgedAndDisturbedBlocks)
{
    for (const bool tlc : {true, false}) {
        const Chip chip = wornChip(
            tlc, tlc ? tlcVoltageParams() : qlcVoltageParams());
        for (int block = 0; block < chip.geometry().blocks; ++block) {
            SCOPED_TRACE(tlc ? "TLC" : "QLC");
            expectLazyMatchesEager(chip, block, 5, 1000 + block, 0,
                                   chip.geometry().dataBitlines);
        }
    }
}

TEST(LazySnapshot, MatchesEagerOnSentinelsExplicitStatesAndOddRanges)
{
    for (const bool tlc : {true, false}) {
        SCOPED_TRACE(tlc ? "TLC" : "QLC");
        Chip chip = wornChip(tlc,
                             tlc ? tlcVoltageParams() : qlcVoltageParams());
        const auto &g = chip.geometry();
        SentinelOverlay o;
        o.start = g.dataBitlines + 100;
        o.count = 400;
        o.lowState = static_cast<std::uint8_t>(g.states() / 2 - 1);
        o.highState = static_cast<std::uint8_t>(g.states() / 2);
        WordlineContent sent;
        sent.dataSeed = 9;
        sent.sentinels = o;
        chip.programWordline(1, 3, sent);
        expectLazyMatchesEager(chip, 1, 3, 21, o.start, o.start + o.count);

        // Explicit states: long runs of one state, then a ramp.
        WordlineContent expl;
        expl.explicitStates.resize(static_cast<std::size_t>(g.bitlines()));
        for (std::size_t i = 0; i < expl.explicitStates.size(); ++i) {
            expl.explicitStates[i] = static_cast<std::uint8_t>(
                i < 5000 ? g.states() - 1 : (i / 7) % g.states());
        }
        chip.programWordline(1, 4, expl);
        expectLazyMatchesEager(chip, 1, 4, 22, 0, g.bitlines());

        expectLazyMatchesEager(chip, 1, 6, 23, 17, 1000);
        expectLazyMatchesEager(chip, 1, 6, 24, g.dataBitlines - 33,
                               g.bitlines());
        expectLazyMatchesEager(chip, 1, 6, 25, 5, 6);
        expectLazyMatchesEager(chip, 1, 6, 26, 5, 5);
    }
}

TEST(LazySnapshot, MatchesEagerWithoutReadNoise)
{
    for (const bool tlc : {true, false}) {
        SCOPED_TRACE(tlc ? "TLC" : "QLC");
        VoltageModelParams params =
            tlc ? tlcVoltageParams() : qlcVoltageParams();
        params.readNoiseSigma = 0.0;
        const Chip chip = wornChip(tlc, params);
        expectLazyMatchesEager(chip, 1, 2, 31, 0,
                               chip.geometry().dataBitlines);
    }
}

TEST(LazySnapshot, DrawsOnlyCellsNearQueriedVoltages)
{
    const Chip chip = wornChip(true, tlcVoltageParams());
    const int n = chip.geometry().dataBitlines;
    const WordlineSnapshot lazy(chip, 1, 7, 41, 0, n,
                                WordlineSnapshot::Lazy{});
    const std::uint64_t at_build = lazy.pendingCells();
    // Only the extreme z buckets are drawn at build time.
    EXPECT_GT(at_build, static_cast<std::uint64_t>(n) * 99 / 100);

    const auto defaults = chip.model().defaultVoltages();
    const int msb = chip.grayCode().msbPage();
    const WordlineSnapshot eager(chip, 1, 7, 41, 0, n);
    EXPECT_EQ(lazy.pageErrors(msb, defaults),
              eager.pageErrors(msb, defaults));
    const std::uint64_t after_read = lazy.pendingCells();
    EXPECT_LT(after_read, at_build);
    EXPECT_GT(after_read, static_cast<std::uint64_t>(n) * 3 / 4);

    // Asking again draws nothing new; a sweep of every threshold
    // draws the rest (each interval [a, b) holds at least one v).
    EXPECT_EQ(lazy.pageErrors(msb, defaults),
              eager.pageErrors(msb, defaults));
    EXPECT_EQ(lazy.pendingCells(), after_read);
    const int lo = chip.model().vthMin(), hi = chip.model().vthMax();
    for (int s = 0; s < eager.states(); ++s) {
        for (int v = lo - 2; v <= hi + 2; ++v) {
            EXPECT_EQ(lazy.stateCellsInRange(s, lo - 3, v),
                      eager.stateCellsInRange(s, lo - 3, v));
        }
    }
    EXPECT_EQ(lazy.pendingCells(), 0u);
}

/// @}

} // namespace
} // namespace flash::nand
