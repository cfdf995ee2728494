/**
 * @file
 * WordlineVthView: batched sensing of a column range of one wordline.
 *
 * Materializes the read-independent part of every cell's threshold
 * voltage (state draw, heavy tail, spatial gradient) once. Every
 * subsequent sense of the range (soft sensing's shifted reads) then
 * only adds the per-read noise term, and packBits() thresholds one
 * sense into a packed page bitplane (util::Bitplane, one bit per
 * cell). Determinism contract: senseDac(read_seq) reproduces
 * Chip::cellVth() bit-exactly for the same read-sequence number, so
 * views compose with the caller-owned ReadSeq sequencing from
 * nandsim/read_seq.hh.
 *
 * Read sessions do not use views: they count errors on lazy
 * WordlineSnapshots (nandsim/snapshot.hh).
 */

#ifndef SENTINELFLASH_NANDSIM_VTH_VIEW_HH
#define SENTINELFLASH_NANDSIM_VTH_VIEW_HH

#include <cstdint>
#include <vector>

#include "nandsim/chip.hh"
#include "util/bitplane.hh"

namespace flash::nand
{

/** Batched static-Vth materialization of a column range of one wordline. */
class WordlineVthView
{
  public:
    /** Materialize columns [col_begin, col_end). */
    WordlineVthView(const Chip &chip, int block, int wl, int col_begin,
                    int col_end);

    /** View of the user-data region. */
    static WordlineVthView dataRegion(const Chip &chip, int block, int wl);

    /** Number of cells in the view. */
    std::size_t cells() const { return static_.size(); }

    /**
     * One sense of every cell: quantized DAC values of
     * staticVth + readNoise(read_seq), bit-exact with
     * Chip::cellVth() rounded the way Chip::readBits() rounds.
     */
    std::vector<int> senseDac(std::uint64_t read_seq) const;

    /**
     * Packed bits of page @p page as sensed with @p voltages
     * (1-based by boundary) given one sense's DAC values.
     */
    util::Bitplane packBits(int page, const std::vector<int> &voltages,
                            const std::vector<int> &dac) const;

  private:
    const Chip *chip_;
    int block_, wl_, colBegin_;
    WordlineContext ctx_;
    std::vector<double> static_;
};

} // namespace flash::nand

#endif // SENTINELFLASH_NANDSIM_VTH_VIEW_HH
