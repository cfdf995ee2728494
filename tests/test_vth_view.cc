/**
 * WordlineVthView equivalence suite: the batched sensing path soft
 * sensing uses must be bit-identical to the per-cell chip APIs it
 * accelerates (senseDac vs cellVth, packBits vs readBits), and the
 * lazy snapshots read sessions build must match eager ones.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/sentinel_layout.hh"
#include "nandsim/snapshot.hh"
#include "nandsim/vth_view.hh"
#include "test_support.hh"
#include "util/logging.hh"

namespace flash::nand
{
namespace
{

class VthViewTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        chip = std::make_unique<Chip>(test::mediumTlcGeometry(),
                                      tlcVoltageParams(), 987);
        core::SentinelConfig scfg;
        scfg.ratio = 0.01;
        chip->programBlock(1, 5, core::makeOverlay(chip->geometry(), scfg));
        chip->setPeCycles(1, 5000);
        chip->age(1, 8760.0, 25.0);
    }

    static void TearDownTestSuite() { chip.reset(); }

    static std::unique_ptr<Chip> chip;
};

std::unique_ptr<Chip> VthViewTest::chip;

constexpr int kBlock = 1;
constexpr int kWl = 3;

TEST_F(VthViewTest, SenseDacReproducesCellVthExactly)
{
    const WordlineVthView view(*chip, kBlock, kWl, 0, 4096);
    const WordlineContext ctx = chip->wordlineContext(kBlock, kWl);
    for (const std::uint64_t seq : {0ULL, 1ULL, 77ULL, 0xdeadULL}) {
        const auto dac = view.senseDac(seq);
        ASSERT_EQ(dac.size(), view.cells());
        for (std::size_t i = 0; i < view.cells(); ++i) {
            const int col = static_cast<int>(i);
            const double vth =
                chip->cellVth(ctx, kBlock, kWl, col,
                              chip->trueState(kBlock, kWl, col), seq);
            EXPECT_EQ(dac[i], static_cast<int>(std::lround(vth)))
                << "cell " << i << " seq " << seq;
        }
    }
}

// The split senseDac relies on: the static part the view caches
// plus the per-read noise is exactly cellVth.
TEST_F(VthViewTest, StaticPlusNoiseEqualsCellVth)
{
    const WordlineContext ctx = chip->wordlineContext(kBlock, kWl);
    for (int col = 100; col < 600; ++col) {
        const int state = chip->trueState(kBlock, kWl, col);
        const double direct =
            chip->cellVth(ctx, kBlock, kWl, col, state, 42);
        const double split =
            chip->staticCellVth(ctx, kBlock, kWl, col, state)
            + chip->readNoise(ctx, kBlock, kWl, col, 42);
        EXPECT_EQ(direct, split) << "col " << col;
    }
}

TEST_F(VthViewTest, PackBitsMatchesReadBits)
{
    const int cells = chip->geometry().dataBitlines;
    const WordlineVthView view =
        WordlineVthView::dataRegion(*chip, kBlock, kWl);
    const auto defaults = chip->model().defaultVoltages();
    for (int page = 0; page < chip->geometry().pagesPerWordline();
         ++page) {
        const std::uint64_t seq = 500 + static_cast<std::uint64_t>(page);
        const auto packed =
            view.packBits(page, defaults, view.senseDac(seq));
        std::vector<std::uint8_t> bytes;
        chip->readBits(kBlock, kWl, page, defaults, seq, 0, cells, bytes);
        ASSERT_EQ(packed.size(), bytes.size());
        for (std::size_t i = 0; i < bytes.size(); ++i)
            ASSERT_EQ(packed.test(i), bytes[i] != 0)
                << "page " << page << " cell " << i;
    }
}

TEST_F(VthViewTest, LazySnapshotMatchesDirectSnapshot)
{
    const std::uint64_t seq = 1234;
    const WordlineSnapshot lazy(*chip, kBlock, kWl, seq, 0,
                                chip->geometry().dataBitlines,
                                WordlineSnapshot::Lazy{});
    const WordlineSnapshot direct =
        WordlineSnapshot::dataRegion(*chip, kBlock, kWl, seq);

    ASSERT_EQ(lazy.cells(), direct.cells());
    for (int s = 0; s < direct.states(); ++s)
        EXPECT_EQ(lazy.cellsInState(s), direct.cellsInState(s));

    const auto defaults = chip->model().defaultVoltages();
    for (int page = 0; page < chip->geometry().pagesPerWordline(); ++page)
        EXPECT_EQ(lazy.pageErrors(page, defaults),
                  direct.pageErrors(page, defaults));

    const int mid = direct.states() / 2;
    const int v0 = defaults[static_cast<std::size_t>(mid)];
    for (int v = v0 - 10; v <= v0 + 10; v += 5) {
        EXPECT_EQ(lazy.upErrors(mid, v), direct.upErrors(mid, v));
        EXPECT_EQ(lazy.downErrors(mid, v), direct.downErrors(mid, v));
        EXPECT_EQ(lazy.cellsInVthRange(v0, v),
                  direct.cellsInVthRange(v0, v));
    }
}

TEST_F(VthViewTest, RejectsBadRanges)
{
    EXPECT_THROW(WordlineVthView(*chip, kBlock, kWl, -1, 10),
                 util::FatalError);
    EXPECT_THROW(WordlineVthView(*chip, kBlock, kWl, 10, 5),
                 util::FatalError);
    EXPECT_THROW(WordlineVthView(*chip, kBlock, kWl, 0,
                                 chip->geometry().bitlines() + 1),
                 util::FatalError);
}

} // namespace
} // namespace flash::nand
