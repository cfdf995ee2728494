/**
 * @file
 * Microbenchmarks of the hot paths: per-cell sensing, snapshot
 * construction, threshold queries, oracle search, inference, and the
 * real codecs.
 *
 *   bench_micro [--reps N]
 *
 * Each case runs a fixed batch of operations per rep; the table gives
 * the best-of-N (bench::timeNs) time per operation.
 */

#include <functional>
#include <string>
#include <vector>

#include "bench_support.hh"
#include "core/error_difference.hh"
#include "core/inference.hh"
#include "core/sentinel_layout.hh"
#include "ecc/bch.hh"
#include "ecc/ldpc.hh"
#include "nandsim/snapshot.hh"
#include "util/rng.hh"

using namespace flash;

namespace
{

volatile std::int64_t g_sink; // defeat dead-code elimination

/** One row: @p ops operations per timed rep. */
struct MicroCase
{
    std::string name;
    int ops;
    std::function<void()> run;
};

} // namespace

int
main(int argc, char **argv)
{
    const int reps =
        static_cast<int>(bench::longArg(argc, argv, "reps", 5, 1, 100000));

    bench::header("Hot-path microbenchmark",
                  "per-operation cost of sensing, queries, inference "
                  "and codecs",
                  "n/a (engineering benchmark)");

    auto chip = bench::makeQlcChip();
    bench::ageBlock(chip, bench::kEvalBlock, 3000);
    const int block = bench::kEvalBlock;
    const auto defaults = chip.model().defaultVoltages();

    std::vector<MicroCase> cases;

    const auto ctx = chip.wordlineContext(block, 0);
    cases.push_back({"cell_sense", 1 << 16, [&] {
                         std::int64_t acc = 0;
                         for (int col = 0; col < 1 << 16; ++col) {
                             acc += static_cast<std::int64_t>(
                                 chip.cellVth(ctx, block, 0, col, 5, 1));
                         }
                         g_sink = acc;
                     }});

    std::uint64_t seq = 0;
    cases.push_back({"snapshot_build", 4, [&] {
                         for (int i = 0; i < 4; ++i) {
                             const auto snap =
                                 nand::WordlineSnapshot::dataRegion(
                                     chip, block, 3, seq++);
                             g_sink = static_cast<std::int64_t>(
                                 snap.cells());
                         }
                     }});

    const auto snap = nand::WordlineSnapshot::dataRegion(chip, block, 3, 1);
    const int v8 = chip.model().defaultVoltage(8);
    cases.push_back({"boundary_error_query", 81 * 64, [&] {
                         std::int64_t acc = 0;
                         for (int r = 0; r < 64; ++r) {
                             for (int off = -40; off <= 40; ++off) {
                                 acc += static_cast<std::int64_t>(
                                     snap.boundaryErrors(8, v8 + off));
                             }
                         }
                         g_sink = acc;
                     }});

    const nand::OracleSearch oracle;
    cases.push_back({"oracle_search_all_boundaries", 8, [&] {
                         for (int i = 0; i < 8; ++i) {
                             g_sink = oracle.optimalVoltages(snap, defaults)
                                          .back();
                         }
                     }});

    // Sentinel read + inference on a programmed, aged block.
    const auto tables = bench::characterize(chip, 96);
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(block, 1, overlay);
    bench::ageBlock(chip, block, 3000);
    const core::InferenceEngine engine(tables, defaults);
    cases.push_back({"sentinel_inference", 64, [&] {
                         for (int i = 0; i < 64; ++i) {
                             const auto sent = core::sentinelSnapshot(
                                 chip, block, 0, overlay, seq++);
                             const double d =
                                 core::countSentinelErrors(sent, 8, v8)
                                     .dRate();
                             g_sink = engine.infer(d).sentinelOffset;
                         }
                     }});

    const ecc::BchCodec bch(13, 8, 2048);
    util::Rng bch_rng(7);
    std::vector<std::uint8_t> data(2048);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(bch_rng.uniformInt(2));
    const auto clean = bch.encode(data);
    cases.push_back({"bch_decode", 64, [&] {
                         for (int i = 0; i < 64; ++i) {
                             auto frame = clean;
                             for (int e = 0; e < 6; ++e) {
                                 frame[bch_rng.uniformInt(
                                     static_cast<std::uint64_t>(
                                         bch.frameBits()))] ^= 1;
                             }
                             g_sink = bch.decode(frame).correctedBits;
                         }
                     }});

    const ecc::QcLdpc ldpc(211, 3, 24);
    const ecc::MinSumDecoder decoder(ldpc);
    util::Rng ldpc_rng(9);
    std::vector<float> llr(static_cast<std::size_t>(ldpc.n()), 4.0f);
    for (int e = 0; e < ldpc.n() / 100; ++e) {
        llr[ldpc_rng.uniformInt(static_cast<std::uint64_t>(ldpc.n()))] =
            -4.0f;
    }
    cases.push_back({"ldpc_decode", 8, [&] {
                         for (int i = 0; i < 8; ++i)
                             g_sink = decoder.decode(llr).iterations;
                     }});

    util::TextTable table;
    table.header({"case", "ops/rep", "best (us/op)"});
    for (const auto &c : cases) {
        const double us = bench::timeNs(reps, c.run) / 1000.0;
        table.row({c.name, std::to_string(c.ops), util::fmt(us / c.ops, 3)});
    }
    table.print(std::cout);

    bench::footer("per-operation costs; codec rows are one frame each "
                  "(BCH 2048 data bits with 6 errors, LDPC n = " +
                  std::to_string(ldpc.n()) + " at 1% raw BER)");
    return 0;
}
