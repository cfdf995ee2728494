/**
 * @file
 * Golden-stats regression suite: the per-policy metrics export of a
 * small fixed configuration is compared byte-for-byte against a
 * committed snapshot. Any change to the read path — retry tables,
 * sentinel inference, calibration logic, latency constants, histogram
 * binning — shows up as a diff here before it shows up as a silently
 * shifted benchmark figure. A second snapshot pins SSD-level
 * behaviour: the SimReport of a reduced Fig 14-style trace replay on
 * every (FTL, GC policy) cell, so FTL preconditioning, allocation,
 * GC, merges and the event loop cannot drift unnoticed. A third pair
 * pins the chip read path more widely: every page type under the
 * vendor ladder, the sentinel, tracking and oracle policies and the
 * cache+model arm, plus the sentinel arm's span trace.
 *
 * Regenerating after an intentional change:
 *   SENTINELFLASH_UPDATE_GOLDEN=1 ./test_golden_stats
 * then review the diff of tests/golden/*.json like any other code.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/policy_metrics.hh"
#include "core/voltage_cache.hh"
#include "core/voltage_model.hh"
#include "ssd/fleet/fleet.hh"
#include "ssd/ftl/ftl_factory.hh"
#include "ssd/ssd_sim.hh"
#include "test_support.hh"
#include "trace/msr_workloads.hh"
#include "util/span_trace.hh"

#ifndef SENTINELFLASH_GOLDEN_DIR
#error "SENTINELFLASH_GOLDEN_DIR must point at tests/golden"
#endif

namespace flash::core
{
namespace
{

std::string
goldenPath(const char *name)
{
    return std::string(SENTINELFLASH_GOLDEN_DIR) + "/" + name;
}

bool
updateMode()
{
    const char *env = std::getenv("SENTINELFLASH_UPDATE_GOLDEN");
    return env && *env && std::string(env) != "0";
}

/**
 * Compare @p actual against the committed snapshot, or rewrite the
 * snapshot in update mode.
 */
void
expectMatchesGolden(const char *name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    if (updateMode()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing snapshot " << path
                    << " (run with SENTINELFLASH_UPDATE_GOLDEN=1)";
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string expected = ss.str();
    EXPECT_EQ(expected, actual)
        << "metrics export drifted from " << path
        << "; if the change is intentional, regenerate with "
           "SENTINELFLASH_UPDATE_GOLDEN=1 and review the JSON diff";
}

/**
 * One deterministic small-config run: aged block, vendor-retry and
 * sentinel policies over every 4th wordline's MSB page.
 */
std::string
exportFor(nand::CellType cell_type)
{
    const bool tlc = cell_type == nand::CellType::TLC;
    nand::Chip chip(tlc ? test::mediumTlcGeometry()
                        : test::mediumQlcGeometry(),
                    tlc ? nand::tlcVoltageParams()
                        : nand::qlcVoltageParams(),
                    20260805);
    CharOptions opt;
    opt.sentinel.ratio = 0.01;
    opt.wordlineStride = 4;
    const FactoryCharacterizer characterizer(opt);
    const Characterization tables = characterizer.run(chip);
    const auto overlay = makeOverlay(chip.geometry(), opt.sentinel);

    chip.programBlock(1, 55, overlay);
    chip.setPeCycles(1, tlc ? 5000u : 3000u);
    chip.age(1, 8760.0, 25.0);

    const ecc::EccModel ecc(ecc::EccConfig{16384, tlc ? 130 : 120});
    const VendorRetryPolicy vendor(chip.model());
    SentinelPolicy sentinel(tables, chip.model().defaultVoltages());
    const auto runs = collectPolicyMetrics(chip, 1, {&vendor, &sentinel},
                                           ecc, overlay, {}, -1, 4, 2);
    std::ostringstream out;
    writePolicyMetricsJson(out, runs);
    return out.str();
}

TEST(GoldenStats, TlcPolicyMetricsMatchSnapshot)
{
    expectMatchesGolden("policy_metrics_tlc.json",
                        exportFor(nand::CellType::TLC));
}

TEST(GoldenStats, QlcPolicyMetricsMatchSnapshot)
{
    expectMatchesGolden("policy_metrics_qlc.json",
                        exportFor(nand::CellType::QLC));
}

/** Golden outputs of one chip's read-path sweep. */
struct ChipReadExport
{
    std::string metrics; ///< per (policy, page) registries, JSON
    std::string spans;   ///< sentinel arm span trace, JSON lines
};

/**
 * Every page type of every 4th wordline of an aged block, read by the
 * vendor ladder, the sentinel policy, the tracking and oracle
 * baselines and the sentinel policy with a voltage cache and model
 * attached (a train pass over all pages, then a measure pass on
 * another read stream). The sentinel arm also records its spans.
 */
ChipReadExport
chipReadExportFor(nand::CellType cell_type)
{
    const bool tlc = cell_type == nand::CellType::TLC;
    nand::Chip chip(tlc ? test::mediumTlcGeometry()
                        : test::mediumQlcGeometry(),
                    tlc ? nand::tlcVoltageParams()
                        : nand::qlcVoltageParams(),
                    20261019);
    CharOptions opt;
    opt.sentinel.ratio = 0.01;
    opt.wordlineStride = 4;
    const Characterization tables = FactoryCharacterizer(opt).run(chip);
    const auto overlay = makeOverlay(chip.geometry(), opt.sentinel);

    constexpr int kBlock = 1;
    chip.programBlock(kBlock, 77, overlay);
    chip.setPeCycles(kBlock, tlc ? 6000u : 3000u);
    chip.age(kBlock, 8760.0, 25.0);

    const ecc::EccModel ecc(ecc::EccConfig{16384, tlc ? 110 : 120});
    const LatencyParams latency;
    const auto defaults = chip.model().defaultVoltages();
    const VendorRetryPolicy vendor(chip.model());
    const SentinelPolicy sentinel(tables, defaults);
    TrackingPolicy tracking(chip.model());
    tracking.track(chip, kBlock, nand::ReadClock(0x7e));
    const OraclePolicy oracle(defaults);
    const int pages = chip.geometry().pagesPerWordline();

    std::ostringstream out;
    util::SpanTrace spans;
    const char *sep = "{\n";
    const auto emit = [&](const std::string &key,
                          const util::MetricsRegistry &m) {
        out << sep << "\"" << key << "\": ";
        m.writeJson(out);
        sep = ",\n";
    };
    for (int page = 0; page < pages; ++page) {
        for (const ReadPolicy *policy :
             {static_cast<const ReadPolicy *>(&vendor),
              static_cast<const ReadPolicy *>(&sentinel),
              static_cast<const ReadPolicy *>(&tracking),
              static_cast<const ReadPolicy *>(&oracle)}) {
            const bool traced = policy == &sentinel;
            const PolicyBlockStats stats = evaluateBlock(
                chip, kBlock, *policy, ecc, overlay, latency, page, 4, 2,
                0x51 + static_cast<std::uint64_t>(page),
                traced ? &spans : nullptr);
            emit(policy->name() + ".page" + std::to_string(page),
                 stats.metrics);
        }
    }

    // The cache+model arm depends on read order, so it runs serially.
    VoltageCache cache;
    VoltagePredictor model;
    SentinelPolicy learned(tables, defaults);
    learned.attachCache(&cache);
    learned.attachModel(&model);
    for (const char *pass : {"train", "measure"}) {
        const std::uint64_t stream = pass[0] == 't' ? 0x61 : 0x62;
        for (int page = 0; page < pages; ++page) {
            const PolicyBlockStats stats = evaluateBlock(
                chip, kBlock, learned, ecc, overlay, latency, page, 4, 1,
                stream + 16 * static_cast<std::uint64_t>(page));
            emit(learned.name() + "." + pass + ".page"
                     + std::to_string(page),
                 stats.metrics);
        }
    }
    util::MetricsRegistry learned_state;
    cache.exportMetrics(learned_state);
    model.exportMetrics(learned_state);
    emit("cache_model_state", learned_state);
    out << ",\n\"model_state\": " << model.stateJson() << "\n}\n";

    std::ostringstream span_out;
    spans.writeJsonLines(span_out);
    return {out.str(), span_out.str()};
}

TEST(GoldenStats, TlcChipReadMatchesSnapshot)
{
    const ChipReadExport e = chipReadExportFor(nand::CellType::TLC);
    expectMatchesGolden("chip_read_tlc.json", e.metrics);
    expectMatchesGolden("sentinel_spans_tlc.jsonl", e.spans);
}

TEST(GoldenStats, QlcChipReadMatchesSnapshot)
{
    const ChipReadExport e = chipReadExportFor(nand::CellType::QLC);
    expectMatchesGolden("chip_read_qlc.json", e.metrics);
    expectMatchesGolden("sentinel_spans_qlc.jsonl", e.spans);
}

/**
 * Reduced Fig 14-style replay: two MSR-like traces (one read-heavy,
 * one write-heavy enough to wrap the logical space and force GC or
 * merges) at fig14's doubled intensity, replayed on a fresh fleet-size
 * device per (FTL, GC policy) cell and per arm. The two arms are
 * fixed empirical cost distributions shaped like the vendor ladder
 * and the sentinel policy, so no chip characterization runs.
 */
std::string
ssdReplayExport()
{
    ssd::EmpiricalReadCost vendor(
        "vendor", {{1, 7, 0}, {1, 7, 0}, {2, 14, 0}, {3, 21, 0}, {5, 35, 0}});
    ssd::EmpiricalReadCost sentinel(
        "sentinel", {{1, 7, 1}, {1, 7, 1}, {1, 7, 1}, {2, 14, 1}});

    const struct
    {
        ssd::FtlKind ftl;
        ssd::GcVictimPolicy policy;
    } cells[] = {
        {ssd::FtlKind::Page, ssd::GcVictimPolicy::Greedy},
        {ssd::FtlKind::Page, ssd::GcVictimPolicy::CostBenefit},
        {ssd::FtlKind::Fast, ssd::GcVictimPolicy::Greedy},
        {ssd::FtlKind::Fast, ssd::GcVictimPolicy::CostBenefit},
    };

    std::ostringstream out;
    const char *sep = "{\n";
    for (const char *workload : {"usr_0", "prn_0"}) {
        auto spec = trace::msrWorkload(workload);
        spec.meanInterarrivalUs *= 0.5;
        const auto tr = trace::generateTrace(spec, 3000, 42);
        for (const auto &cell : cells) {
            ssd::SsdConfig cfg = ssd::fleet::smallDeviceConfig();
            cfg.ftl = cell.ftl;
            cfg.gcPolicy = cell.policy;
            for (ssd::ReadCostSource *cost :
                 {static_cast<ssd::ReadCostSource *>(&vendor),
                  static_cast<ssd::ReadCostSource *>(&sentinel)}) {
                ssd::SsdSim sim(cfg, ssd::SsdTiming{}, *cost, 1);
                const ssd::SimReport rep = sim.run(tr);
                out << sep << "\"" << workload << '.'
                    << ssd::ftlKindName(cell.ftl) << '.'
                    << ssd::gcPolicyName(cell.policy) << '.'
                    << cost->name() << "\": ";
                rep.writeJson(out);
                sep = ",\n";
            }
        }
    }
    out << "\n}\n";
    return out.str();
}

TEST(GoldenStats, SsdReplayReportsMatchSnapshot)
{
    expectMatchesGolden("ssd_replay_reports.json", ssdReplayExport());
}

} // namespace
} // namespace flash::core
