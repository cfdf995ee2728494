/**
 * @file
 * Microbenchmark of the sensing kernels against the reference paths
 * they replaced.
 *
 *   bench_kernels [--reps N] [--json FILE]
 *
 * Two kernels, each timed as reference ("scalar") vs the path the
 * program runs ("packed") and checked for identical results before
 * any timing is trusted:
 *
 *   soft_agreement    6-extra-sense agreement accumulation of soft
 *                     sensing: byte adds vs XOR/flip + bit-sliced
 *                     counter.
 *   lazy_snapshot     a read session's snapshot queries (page errors at
 *                     4 voltage sets, sentinel-boundary errors): eager
 *                     WordlineSnapshot vs the lazy one ReadContext
 *                     builds. The read path's row.
 *
 * The JSON export ({"kernels": {name: {scalar_ns, packed_ns,
 * speedup}}}) feeds tools/bench_compare, which CI uses to fail the
 * build when a kernel regresses below its reference.
 */

#include <algorithm>
#include <vector>

#include "bench_support.hh"
#include "core/sentinel_layout.hh"
#include "nandsim/snapshot.hh"
#include "util/bitplane.hh"
#include "util/rng.hh"

using namespace flash;

namespace
{

volatile std::uint64_t g_sink; // defeat dead-code elimination

} // namespace

int
main(int argc, char **argv)
{
    const int reps =
        static_cast<int>(bench::longArg(argc, argv, "reps", 5, 1, 100000));
    const std::string json_out = bench::stringArg(argc, argv, "json");

    bench::header("Kernel microbenchmark",
                  "sensing kernels vs their reference paths",
                  "n/a (engineering benchmark)");

    auto chip = bench::makeTlcChip();
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(bench::kEvalBlock, bench::kChipSeed ^ 0xbe,
                      overlay);
    bench::ageBlock(chip, bench::kEvalBlock, 5000);

    const int block = bench::kEvalBlock;
    const int wl = 8;
    const int page = chip.grayCode().msbPage();
    const int cells = chip.geometry().dataBitlines;
    const auto defaults = chip.model().defaultVoltages();
    const int k_s = static_cast<int>(defaults.size()) / 2;

    // A 4-attempt retry session: defaults plus three stepped sets.
    std::vector<std::vector<int>> sets(4, defaults);
    for (int i = 1; i < 4; ++i) {
        for (std::size_t k = 1; k < sets[static_cast<std::size_t>(i)].size();
             ++k) {
            sets[static_cast<std::size_t>(i)][k] -= 4 * i;
        }
    }

    std::vector<bench::KernelResult> results;

    // --- soft_agreement ---------------------------------------------
    // Both paths consume what the sensing layer produces — packed
    // bitplanes from WordlineVthView::packBits — and both end with
    // the per-cell agreement bytes the LLR mapping needs. The scalar
    // oracle (the pre-packed softReadRange shape) expands every sense
    // to bytes and byte-adds; the packed path XORs planes into the
    // bit-sliced counter and expands once at the end.
    {
        const std::size_t n = static_cast<std::size_t>(cells);
        util::Rng rng(0x50f7);
        std::vector<util::Bitplane> sense_planes(7, util::Bitplane(n));
        for (int s = 0; s < 7; ++s) {
            auto &plane = sense_planes[static_cast<std::size_t>(s)];
            for (std::size_t i = 0; i < n; ++i)
                plane.assign(i, rng.uniformInt(16) != 0); // mostly agree
        }
        std::vector<std::uint8_t> scalar_out(n), packed_out(n);
        const auto scalar = [&] {
            std::vector<std::uint8_t> hard(n), bits(n);
            sense_planes[0].expand(hard.data());
            std::fill(scalar_out.begin(), scalar_out.end(), 0);
            for (int s = 1; s < 7; ++s) {
                sense_planes[static_cast<std::size_t>(s)].expand(
                    bits.data());
                for (std::size_t i = 0; i < n; ++i)
                    scalar_out[i] = static_cast<std::uint8_t>(
                        scalar_out[i] + (bits[i] == hard[i]));
            }
            g_sink = scalar_out[n / 2];
        };
        const auto packed = [&] {
            util::SlicedCounter3 agreement(n);
            const auto &hard = sense_planes[0];
            for (int s = 1; s < 7; ++s) {
                util::Bitplane match =
                    sense_planes[static_cast<std::size_t>(s)];
                match ^= hard;
                match.flip();
                agreement.add(match);
            }
            agreement.expand(packed_out.data());
            g_sink = packed_out[n / 2];
        };
        scalar();
        packed();
        util::fatalIf(scalar_out != packed_out,
                      "soft_agreement: packed result diverges");
        results.push_back({"soft_agreement", bench::timeNs(reps, scalar),
                           bench::timeNs(reps, packed)});
    }

    // --- lazy_snapshot ----------------------------------------------
    {
        const auto session = [&](const nand::WordlineSnapshot &snap) {
            std::uint64_t acc = 0;
            for (const auto &v : sets)
                acc += snap.pageErrors(page, v);
            acc += snap.boundaryErrors(
                k_s, defaults[static_cast<std::size_t>(k_s)]);
            return acc;
        };
        std::uint64_t eager_acc = 0, lazy_acc = 0;
        const auto eager = [&] {
            const nand::WordlineSnapshot snap =
                nand::WordlineSnapshot::dataRegion(chip, block, wl, 7);
            eager_acc = session(snap);
            g_sink = eager_acc;
        };
        const auto lazy = [&] {
            const nand::WordlineSnapshot snap(
                chip, block, wl, 7, 0, cells, nand::WordlineSnapshot::Lazy{});
            lazy_acc = session(snap);
            g_sink = lazy_acc;
        };
        eager();
        lazy();
        util::fatalIf(eager_acc != lazy_acc,
                      "lazy_snapshot: lazy result diverges");
        results.push_back({"lazy_snapshot", bench::timeNs(reps, eager),
                           bench::timeNs(reps, lazy)});
    }

    bench::reportKernels(results, reps, json_out, "cells", cells);

    bench::footer("packed kernels should beat the scalar oracles on "
                  "every row; lazy_snapshot is the read pipeline's "
                  "hot path");
    return 0;
}
