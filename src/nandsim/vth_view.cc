#include "nandsim/vth_view.hh"

#include <cmath>

#include "util/logging.hh"

namespace flash::nand
{

WordlineVthView::WordlineVthView(const Chip &chip, int block, int wl,
                                 int col_begin, int col_end)
    : chip_(&chip), block_(block), wl_(wl), colBegin_(col_begin),
      ctx_(chip.wordlineContext(block, wl))
{
    const auto &geom = chip.geometry();
    util::fatalIf(col_begin < 0 || col_end > geom.bitlines()
                      || col_begin > col_end,
                  "vth view: bad column range");

    std::vector<std::uint8_t> states;
    chip.trueStates(block, wl, col_begin, col_end, states);
    static_.resize(states.size());
    for (std::size_t i = 0; i < states.size(); ++i) {
        const int col = col_begin + static_cast<int>(i);
        static_[i] = chip.staticCellVth(ctx_, block, wl, col, states[i]);
    }
}

WordlineVthView
WordlineVthView::dataRegion(const Chip &chip, int block, int wl)
{
    return WordlineVthView(chip, block, wl, 0,
                           chip.geometry().dataBitlines);
}

std::vector<int>
WordlineVthView::senseDac(std::uint64_t read_seq) const
{
    std::vector<int> dac(static_.size());
    if (ctx_.readNoiseSigma > 0.0) {
        for (std::size_t i = 0; i < static_.size(); ++i) {
            const int col = colBegin_ + static_cast<int>(i);
            // Same addition order as Chip::cellVth: static + noise.
            const double vth = static_[i]
                + chip_->readNoise(ctx_, block_, wl_, col, read_seq);
            dac[i] = static_cast<int>(std::lround(vth));
        }
    } else {
        for (std::size_t i = 0; i < static_.size(); ++i)
            dac[i] = static_cast<int>(std::lround(static_[i]));
    }
    return dac;
}

util::Bitplane
WordlineVthView::packBits(int page, const std::vector<int> &voltages,
                          const std::vector<int> &dac) const
{
    const GrayCode &code = chip_->grayCode();
    util::fatalIf(page < 0 || page >= chip_->geometry().pagesPerWordline(),
                  "vth view: page out of range");
    util::fatalIf(static_cast<int>(voltages.size())
                      < chip_->geometry().states(),
                  "vth view: voltage vector must be indexed 1..boundaries");
    util::fatalIf(dac.size() != static_.size(),
                  "vth view: sense size mismatch");

    const auto &ks = code.boundariesOfPage(page);
    int thresholds[8];
    util::fatalIf(ks.size() > 8, "vth view: too many page boundaries");
    for (std::size_t t = 0; t < ks.size(); ++t)
        thresholds[t] = voltages[static_cast<std::size_t>(ks[t])];

    const unsigned bit0 = static_cast<unsigned>(code.bit(0, page));
    util::Bitplane out(dac.size());
    std::uint64_t *words = out.words();
    const std::size_t n_thresh = ks.size();
    const std::size_t n = dac.size();
    // Accumulate each word in a register; per-bit |= into the array
    // would read-modify-write memory on every cell.
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const int v = dac[i];
        unsigned region = 0;
        for (std::size_t t = 0; t < n_thresh; ++t)
            region += v > thresholds[t];
        w |= static_cast<std::uint64_t>((bit0 ^ region) & 1) << (i & 63);
        if ((i & 63) == 63) {
            words[i >> 6] = w;
            w = 0;
        }
    }
    if (n & 63)
        words[n >> 6] = w;
    return out;
}

} // namespace flash::nand
