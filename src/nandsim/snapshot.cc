#include "nandsim/snapshot.hh"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/logging.hh"
#include "util/rng.hh"

namespace flash::nand
{

namespace
{

/**
 * toGaussian at the edges of the 4096 buckets of a hash's top 12 bits:
 * toGaussian(h) for h in bucket j lies in [edge[j], edge[j + 1]]
 * (toGaussian is monotone up to ~1e-12 jitter at its branch points,
 * far inside the lazy snapshot's 2 DAC margin). edge[4096] is the
 * value at the top of the clamped uniform.
 */
const std::array<double, 4097> &
gaussianEdges()
{
    static const std::array<double, 4097> edges = [] {
        std::array<double, 4097> e{};
        for (std::uint64_t j = 0; j < 4096; ++j)
            e[j] = util::toGaussian(j << 52);
        e[4096] = util::toGaussian(~0ULL);
        return e;
    }();
    return edges;
}

} // namespace

WordlineSnapshot::WordlineSnapshot(const Chip &chip, int block, int wl,
                                   std::uint64_t read_seq, int col_begin,
                                   int col_end)
    : code_(&chip.grayCode())
{
    const auto &geom = chip.geometry();
    util::fatalIf(col_begin < 0 || col_end > geom.bitlines()
                      || col_begin > col_end,
                  "snapshot: bad column range");

    const int lo = chip.model().vthMin();
    const int hi = chip.model().vthMax();
    hist_.reserve(static_cast<std::size_t>(geom.states()));
    for (int s = 0; s < geom.states(); ++s)
        hist_.emplace_back(lo, hi);

    const WordlineContext ctx = chip.wordlineContext(block, wl);
    for (int col = col_begin; col < col_end; ++col) {
        const int state = chip.trueState(block, wl, col);
        const double vth =
            chip.cellVth(ctx, block, wl, col, state, read_seq);
        hist_[static_cast<std::size_t>(state)].add(
            static_cast<int>(std::lround(vth)));
        ++cells_;
    }
}

WordlineSnapshot::WordlineSnapshot(const Chip &chip, int block, int wl,
                                   std::uint64_t read_seq, int col_begin,
                                   int col_end, Lazy)
    : code_(&chip.grayCode())
{
    const auto &geom = chip.geometry();
    util::fatalIf(col_begin < 0 || col_end > geom.bitlines()
                      || col_begin > col_end,
                  "snapshot: bad column range");

    const int lo = chip.model().vthMin();
    const int hi = chip.model().vthMax();
    const int states = geom.states();
    hist_.reserve(static_cast<std::size_t>(states));
    for (int s = 0; s < states; ++s)
        hist_.emplace_back(lo, hi);

    Pending p;
    p.chip = &chip;
    p.block = block;
    p.wl = wl;
    p.colBegin = col_begin;
    p.readSeq = read_seq;
    p.ctx = chip.wordlineContext(block, wl);
    const WordlineContext &ctx = p.ctx;

    std::vector<std::uint8_t> state;
    chip.trueStates(block, wl, col_begin, col_end, state);
    cells_ = state.size();
    util::fatalIf(cells_ >= (1u << 24), "snapshot: too many lazy cells");

    // The sensed value lround(static + noise) lies in [a, b]: the
    // static Vth between its z bucket's edge values (Chip::staticCellVth
    // with z at the edges), |noise| <= kGaussianBound * sigma, and
    // integer truncation plus 2 DAC covering lround (1) and floating
    // point rounding (far below the other 1).
    const double noise = ctx.readNoiseSigma > 0.0
        ? util::kGaussianBound * ctx.readNoiseSigma
        : 0.0;
    // Intervals wider than this (the extreme z buckets) are drawn now.
    const int max_width = std::min(255, static_cast<int>(2.0 * noise) + 16);
    const auto &edge = gaussianEdges();
    const double inv_span = 1.0 / static_cast<double>(geom.bitlines() - 1);

    struct Cand
    {
        int a;
        std::uint32_t entry;
        std::uint8_t state;
    };
    std::vector<Cand> cand;
    cand.reserve(state.size());
    std::vector<std::uint32_t> wide;
    p.first.assign(static_cast<std::size_t>(states), INT_MAX);
    std::vector<int> last(static_cast<std::size_t>(states), INT_MIN);
    for (std::size_t i = 0; i < state.size(); ++i) {
        const int col = col_begin + static_cast<int>(i);
        const std::uint8_t s = state[i];
        const std::uint64_t zh = chip.cellZHash(block, wl, col);
        const bool tail = Chip::isTailCell(ctx, zh);
        const double m = tail ? ctx.tailMean[s] : ctx.mean[s];
        const double sd = tail ? ctx.tailSigma[s] : ctx.sigma[s];
        const double g =
            ctx.gradient * (static_cast<double>(col) * inv_span - 0.5);
        const std::size_t j = zh >> 52;
        const double e0 = m + sd * edge[j] + g;
        const double e1 = m + sd * edge[j + 1] + g;
        const int a = static_cast<int>(std::min(e0, e1) - noise) - 2;
        const int b = static_cast<int>(std::max(e0, e1) + noise) + 2;
        if (b - a > max_width) {
            wide.push_back(static_cast<std::uint32_t>(i));
            continue;
        }
        cand.push_back(
            {a, static_cast<std::uint32_t>(i << 8 | (b - a)), s});
        p.first[s] = std::min(p.first[s], a);
        last[s] = std::max(last[s], a);
        p.width = std::max(p.width, b - a);
    }
    for (std::uint32_t i : wide) {
        const int col = col_begin + static_cast<int>(i);
        hist_[state[i]].add(static_cast<int>(std::lround(
            chip.cellVth(ctx, block, wl, col, state[i], read_seq))));
    }
    if (cand.empty())
        return;

    // Bucket the pending cells by (state, a) in one counting sort; the
    // bucket sizes are also their histogram counts at a.
    p.base.assign(static_cast<std::size_t>(states) + 1, 0);
    for (std::size_t s = 0; s < static_cast<std::size_t>(states); ++s) {
        const bool any = last[s] != INT_MIN;
        if (!any)
            p.first[s] = 0;
        p.base[s + 1] = p.base[s]
            + (any ? static_cast<std::size_t>(last[s] - p.first[s]
                                              + p.width)
                   : 0);
    }
    const auto slot = [&p](const Cand &c) {
        return p.base[c.state]
            + static_cast<std::size_t>(c.a - p.first[c.state]);
    };
    p.bucket.assign(p.base.back() + 1, 0);
    for (const Cand &c : cand)
        ++p.bucket[slot(c) + 1];
    for (int s = 0; s < states; ++s) {
        const auto si = static_cast<std::size_t>(s);
        for (std::size_t bi = p.base[si]; bi < p.base[si + 1]; ++bi) {
            if (p.bucket[bi + 1]) {
                hist_[si].add(p.first[si] + static_cast<int>(bi - p.base[si]),
                              p.bucket[bi + 1]);
            }
        }
    }
    std::partial_sum(p.bucket.begin(), p.bucket.end(), p.bucket.begin());
    p.entries.resize(cand.size());
    // Filling advances each bucket's start to its end; shift back.
    for (const Cand &c : cand)
        p.entries[p.bucket[slot(c)]++] = c.entry;
    std::copy_backward(p.bucket.begin(), p.bucket.end() - 1,
                       p.bucket.end());
    p.bucket[0] = 0;
    p.done.assign(p.base.back(), 0);
    p.pending = cand.size();
    lazy_.emplace(std::move(p));
}

void
WordlineSnapshot::resolveCell(int s, int a, std::uint32_t &entry) const
{
    Pending &p = *lazy_;
    const int col = p.colBegin + static_cast<int>(entry >> 8);
    // Exactly the eager constructor's value.
    const double vth =
        p.chip->cellVth(p.ctx, p.block, p.wl, col, s, p.readSeq);
    hist_[static_cast<std::size_t>(s)].move(
        a, static_cast<int>(std::lround(vth)));
    entry &= ~0xffu;
    --p.pending;
}

void
WordlineSnapshot::resolve(int s, int v) const
{
    if (!lazy_)
        return;
    Pending &p = *lazy_;
    const auto si = static_cast<std::size_t>(s);
    const long len = static_cast<long>(p.base[si + 1] - p.base[si]);
    const long off = static_cast<long>(v) - p.first[si];
    if (off < 0 || off >= len)
        return;
    std::uint8_t &done = p.done[p.base[si] + static_cast<std::size_t>(off)];
    if (done)
        return;
    done = 1;
    // A cell counted at a needs drawing iff a <= v < b = a + (b - a).
    for (long ao = std::max(0L, off - p.width + 1); ao <= off; ++ao) {
        const std::size_t bi = p.base[si] + static_cast<std::size_t>(ao);
        const int a = p.first[si] + static_cast<int>(ao);
        for (std::uint32_t k = p.bucket[bi]; k < p.bucket[bi + 1]; ++k) {
            std::uint32_t &e = p.entries[k];
            if (a + static_cast<int>(e & 0xff) > v)
                resolveCell(s, a, e);
        }
    }
}

WordlineSnapshot
WordlineSnapshot::dataRegion(const Chip &chip, int block, int wl,
                             std::uint64_t read_seq)
{
    return WordlineSnapshot(chip, block, wl, read_seq, 0,
                            chip.geometry().dataBitlines);
}

WordlineSnapshot
WordlineSnapshot::fullWordline(const Chip &chip, int block, int wl,
                               std::uint64_t read_seq)
{
    return WordlineSnapshot(chip, block, wl, read_seq, 0,
                            chip.geometry().bitlines());
}

std::uint64_t
WordlineSnapshot::cellsInState(int s) const
{
    util::fatalIf(s < 0 || s >= states(), "snapshot: state out of range");
    return hist_[static_cast<std::size_t>(s)].total();
}

std::uint64_t
WordlineSnapshot::upErrors(int k, int v) const
{
    util::fatalIf(k < 1 || k >= states(), "snapshot: boundary out of range");
    resolve(k - 1, v);
    return hist_[static_cast<std::size_t>(k - 1)].countAbove(v);
}

std::uint64_t
WordlineSnapshot::downErrors(int k, int v) const
{
    util::fatalIf(k < 1 || k >= states(), "snapshot: boundary out of range");
    resolve(k, v);
    return hist_[static_cast<std::size_t>(k)].countAtOrBelow(v);
}

std::uint64_t
WordlineSnapshot::pageErrors(int page, const std::vector<int> &voltages) const
{
    const auto &ks = code_->boundariesOfPage(page);
    util::fatalIf(static_cast<int>(voltages.size()) < states(),
                  "snapshot: voltage vector must be indexed 1..boundaries");

    // Regions r = 0..K between the page's K thresholds; the page bit
    // alternates across regions starting from the erased state's bit.
    const int bit0 = code_->bit(0, page);
    std::uint64_t errors = 0;
    for (int s = 0; s < states(); ++s) {
        const auto &h = hist_[static_cast<std::size_t>(s)];
        if (h.total() == 0)
            continue;
        for (int k : ks)
            resolve(s, voltages[static_cast<std::size_t>(k)]);
        const int want = code_->bit(s, page);
        int region_lo = h.lo() - 1; // exclusive lower edge
        for (std::size_t r = 0; r <= ks.size(); ++r) {
            const int region_hi = r < ks.size()
                ? voltages[static_cast<std::size_t>(ks[r])]
                : h.hi();
            const int bit = bit0 ^ (static_cast<int>(r) & 1);
            if (bit != want) {
                errors += h.countAtOrBelow(region_hi)
                    - h.countAtOrBelow(region_lo);
            }
            region_lo = region_hi;
        }
    }
    return errors;
}

double
WordlineSnapshot::pageRber(int page, const std::vector<int> &voltages) const
{
    return cells_ ? static_cast<double>(pageErrors(page, voltages))
            / static_cast<double>(cells_)
                  : 0.0;
}

std::uint64_t
WordlineSnapshot::cellsInVthRange(int lo, int hi) const
{
    if (hi < lo)
        std::swap(lo, hi);
    std::uint64_t n = 0;
    for (int s = 0; s < states(); ++s) {
        resolve(s, lo);
        resolve(s, hi);
        const auto &h = hist_[static_cast<std::size_t>(s)];
        n += h.countAtOrBelow(hi) - h.countAtOrBelow(lo);
    }
    return n;
}

std::uint64_t
WordlineSnapshot::stateCellsInRange(int s, int lo, int hi) const
{
    util::fatalIf(s < 0 || s >= states(), "snapshot: state out of range");
    if (hi < lo)
        std::swap(lo, hi);
    resolve(s, lo);
    resolve(s, hi);
    const auto &h = hist_[static_cast<std::size_t>(s)];
    return h.countAtOrBelow(hi) - h.countAtOrBelow(lo);
}

} // namespace flash::nand
