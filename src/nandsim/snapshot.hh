/**
 * @file
 * WordlineSnapshot: one sensing pass over a wordline, binned into
 * per-true-state Vth histograms.
 *
 * Every question the read policies and the oracle ask — up/down
 * errors of a boundary at any threshold, exact page error counts for
 * any voltage set, state-change counts between two voltage sets — is
 * then a prefix-sum lookup instead of another pass over the cells.
 * A snapshot embeds one draw of per-read sensing noise; building a
 * new snapshot with a different read sequence redraws it.
 *
 * A lazy snapshot gives the same counts while drawing a cell's two
 * Gaussians (static Vth and read noise) only when a queried voltage
 * can tell where the cell was sensed; see the lazy constructor and
 * DESIGN.md §11.
 */

#ifndef SENTINELFLASH_NANDSIM_SNAPSHOT_HH
#define SENTINELFLASH_NANDSIM_SNAPSHOT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "nandsim/chip.hh"
#include "util/histogram.hh"

namespace flash::nand
{

/**
 * Histogrammed sensing pass over a column range of one wordline.
 */
class WordlineSnapshot
{
  public:
    /**
     * Sense columns [col_begin, col_end) of the wordline with the
     * given read-sequence number and build the histograms.
     */
    WordlineSnapshot(const Chip &chip, int block, int wl,
                     std::uint64_t read_seq, int col_begin, int col_end);

    /** Tag selecting the lazy constructor. */
    struct Lazy
    {
    };

    /**
     * Lazy sense of the same columns: every count is bit-identical to
     * the eager constructor's, but the build only hashes each cell
     * and bounds its sensed DAC value to an interval [a, b] (a table
     * of toGaussian at the hash's top-12-bit bucket edges, the
     * util::kGaussianBound noise bound and a 2 DAC margin). A pending
     * cell is counted at a, which is exact for any threshold outside
     * [a, b); a query at v first draws the exact Vth of the pending
     * cells whose interval holds v. Cells with wide intervals are
     * drawn at build time.
     *
     * Queries mutate the snapshot behind const methods, so a lazy
     * snapshot is not re-entrant: one thread at a time (a read
     * session owns its snapshots). The chip must outlive it.
     */
    WordlineSnapshot(const Chip &chip, int block, int wl,
                     std::uint64_t read_seq, int col_begin, int col_end,
                     Lazy);

    /** Cells of a lazy snapshot not yet drawn (0 when eager). */
    std::uint64_t pendingCells() const
    {
        return lazy_ ? lazy_->pending : 0;
    }

    /** Snapshot of the user-data region only. */
    static WordlineSnapshot dataRegion(const Chip &chip, int block, int wl,
                                       std::uint64_t read_seq);

    /** Snapshot of the whole wordline (data + OOB). */
    static WordlineSnapshot fullWordline(const Chip &chip, int block,
                                         int wl, std::uint64_t read_seq);

    /** Number of cells captured. */
    std::uint64_t cells() const { return cells_; }

    /** Number of captured cells whose true state is @p s. */
    std::uint64_t cellsInState(int s) const;

    /**
     * Up errors of boundary @p k at threshold @p v: cells truly in
     * state k-1 sensed above v (misread upward). Paper Fig 9.
     */
    std::uint64_t upErrors(int k, int v) const;

    /**
     * Down errors of boundary @p k at threshold @p v: cells truly in
     * state k sensed at or below v (misread downward).
     */
    std::uint64_t downErrors(int k, int v) const;

    /** Up + down errors of a boundary at a threshold. */
    std::uint64_t boundaryErrors(int k, int v) const
    {
        return upErrors(k, v) + downErrors(k, v);
    }

    /**
     * Exact misread-bit count of a page when read with the given
     * voltage set (indexed by boundary, 1-based; only the page's
     * boundaries are consulted). Counts every cell whose sensed
     * region maps to the wrong bit, including multi-state shifts.
     */
    std::uint64_t pageErrors(int page, const std::vector<int> &voltages) const;

    /** pageErrors() normalized by the number of cells. */
    double pageRber(int page, const std::vector<int> &voltages) const;

    /** Cells (any state) sensed with Vth in (lo, hi]. */
    std::uint64_t cellsInVthRange(int lo, int hi) const;

    /** Cells truly in state @p s sensed with Vth in (lo, hi]. */
    std::uint64_t stateCellsInRange(int s, int lo, int hi) const;

    /** Gray code of the captured chip. */
    const GrayCode &grayCode() const { return *code_; }

    /** Number of states. */
    int states() const { return static_cast<int>(hist_.size()); }

  private:
    /**
     * Pending cells of a lazy snapshot. Per state s, a window of
     * DAC values starting at first[s] indexes both the buckets of
     * pending cells (by a) and the thresholds already made exact.
     */
    struct Pending
    {
        const Chip *chip = nullptr;
        int block = 0, wl = 0, colBegin = 0;
        std::uint64_t readSeq = 0;
        WordlineContext ctx;
        int width = 0;                    ///< max b - a over the cells
        std::vector<int> first;           ///< [state] window origin
        std::vector<std::size_t> base;    ///< [state] window offset
        std::vector<std::uint32_t> bucket; ///< entry range of (s, a)
        /// (cell index << 8) | (b - a); the low byte is 0 once drawn.
        std::vector<std::uint32_t> entries;
        std::vector<std::uint8_t> done;   ///< (s, v) already exact
        std::uint64_t pending = 0;
    };

    /** Draw the pending cells of state @p s whose interval holds @p v. */
    void resolve(int s, int v) const;

    /** Draw one pending cell of state @p s counted at @p a. */
    void resolveCell(int s, int a, std::uint32_t &entry) const;

    const GrayCode *code_;
    mutable std::vector<util::Histogram> hist_; // one per true state
    std::uint64_t cells_ = 0;
    mutable std::optional<Pending> lazy_;
};

} // namespace flash::nand

#endif // SENTINELFLASH_NANDSIM_SNAPSHOT_HH
