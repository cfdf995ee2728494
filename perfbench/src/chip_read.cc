/**
 * @file
 * chip_read: the paper's chip-level read experiment on a paper-geometry
 * TLC chip.
 *
 * Set-up builds the chip, characterizes it once (the factory sweep) and
 * programs and ages seven blocks per wear point. The timed reads are
 * cut into seven slices of one block per wear point each. One round
 * reads sampled wordlines of its slice's blocks on every page type with
 * three arms: the vendor retry ladder, SentinelPolicy, and
 * SentinelPolicy with a fresh voltage cache and online voltage model
 * attached (a train pass over the slice's blocks and pages, then a
 * measure pass on another read stream, as fig14 measures its model
 * arm). One operation is one read session. Everything runs on one
 * thread; nothing here touches ssd/.
 */
#include <optional>
#include <sstream>

#include "core/characterization.hh"
#include "core/evaluator.hh"
#include "core/read_policy.hh"
#include "core/sentinel_layout.hh"
#include "core/voltage_cache.hh"
#include "core/voltage_model.hh"
#include "harness.hh"
#include "nandsim/chip.hh"
#include "nandsim/vth_view.hh"
#include "util/rng.hh"

namespace perfbench
{

namespace
{

using namespace flash;

/** One aged block: its P/E cycles and retention bake. */
struct WearPoint
{
    std::uint32_t peCycles;
    double retentionHours;
};

/** Wear points around the paper's P/E 5000 + 1 year condition. */
const WearPoint kWear[] = {{4500, 8760.0}, {5000, 8760.0}, {5500, 8760.0}};
constexpr int kWearPoints = sizeof kWear / sizeof kWear[0];

/**
 * Slices of the timed reads, and so blocks aged to each wear point: a
 * slice reads one block of every wear point. Blocks of one chip differ
 * (process variation), so several blocks per point keep one block's
 * luck from deciding a seed's figures.
 */
constexpr int kSlices = 7;
constexpr int kWearBlocks = kWearPoints * kSlices;

/** Block 0 is the characterization block; wear blocks follow it. */
constexpr int kFirstWearBlock = 1;

/** The wear block of wear point @p w read by slice @p j. */
constexpr int
wearBlock(int w, int j)
{
    return kFirstWearBlock + w * kSlices + j;
}

/**
 * The chip under test: the batch seed the figure harnesses use. The
 * workload seed picks the data programmed and the read-noise streams.
 */
constexpr std::uint64_t kChipSeed = 0x5eed2020;

/** Wordline stride of the factory sweep (set-up). */
constexpr int kCharStride = 16;

/**
 * Wordline strides of the arms. The sentinel arm, whose latency
 * percentiles are reported, reads enough sessions over a pass (1008)
 * for ten to lie beyond its p99; the current-flash arm only supplies
 * the mean latency of sim_latency_reduction, and the model arm its
 * cache and model shares.
 */
constexpr int kSentinelStride = 16;
constexpr int kVendorStride = 64;
constexpr int kModelStride = 128;

/** Read-stream salts of the three arms' passes. */
constexpr std::uint64_t kVendorStream = 0xa1;
constexpr std::uint64_t kSentinelStream = 0xa2;
constexpr std::uint64_t kTrainStream = 0xa3;
constexpr std::uint64_t kMeasureStream = 0xa4;

/** Per-arm tallies of one round or one pass. */
struct ArmTally
{
    util::MetricsRegistry metrics;
    std::uint64_t sessions = 0;
    std::uint64_t firstTry = 0;
    std::uint64_t failures = 0;

    void
    add(const core::PolicyBlockStats &s)
    {
        metrics.merge(s.metrics);
        sessions += static_cast<std::uint64_t>(s.sessions);
        failures += static_cast<std::uint64_t>(s.failures);
        for (int r : s.retriesPerWordline)
            firstTry += r == 0 ? 1 : 0;
    }

    void
    merge(const ArmTally &o)
    {
        metrics.merge(o.metrics);
        sessions += o.sessions;
        firstTry += o.firstTry;
        failures += o.failures;
    }

    double
    latencyMean() const
    {
        const util::LatencyHistogram *h =
            metrics.findHistogram("read.latency_us");
        return h ? h->mean() : 0.0;
    }
};

/** What one slice's reads gave. */
struct SliceTally
{
    ArmTally vendor, sentinel, train, measure;
    /** Cache and model statistics over the measure pass. */
    std::uint64_t cacheHits = 0, cacheLookups = 0;
    std::uint64_t fastHits = 0, fastAttempts = 0;
    /** Model observations over both passes. */
    std::uint64_t observes = 0;

    void
    merge(const SliceTally &o)
    {
        vendor.merge(o.vendor);
        sentinel.merge(o.sentinel);
        train.merge(o.train);
        measure.merge(o.measure);
        cacheHits += o.cacheHits;
        cacheLookups += o.cacheLookups;
        fastHits += o.fastHits;
        fastAttempts += o.fastAttempts;
        observes += o.observes;
    }
};

class ChipRead : public Workload
{
  public:
    void
    setup(std::uint64_t seed, LayerClock &clock) override
    {
        seed_ = seed;
        nand::ChipGeometry geom = nand::paperTlcGeometry();
        geom.blocks = kFirstWearBlock + kWearBlocks;
        chip_.emplace(geom, nand::tlcVoltageParams(), kChipSeed);
        overlay_ = core::makeOverlay(chip_->geometry(),
                                     core::SentinelConfig{});

        core::CharOptions opt;
        opt.wordlineStride = kCharStride;
        opt.threads = 1;
        tables_ = timed(&clock, "core.characterize_s", [&] {
            return core::FactoryCharacterizer(opt).run(*chip_);
        });

        for (int w = 0; w < kWearPoints; ++w) {
            for (int j = 0; j < kSlices; ++j) {
                const int block = wearBlock(w, j);
                const std::uint64_t data_seed = util::hashWords(
                    {seed, 0xda7a, static_cast<std::uint64_t>(block)});
                chip_->programBlock(block, data_seed, overlay_);
                chip_->setPeCycles(block, kWear[w].peCycles);
                chip_->refresh(block);
                chip_->age(block, kWear[w].retentionHours, 25.0);
            }
        }
        tallies_.assign(kSlices, SliceTally{});
    }

    int slices() const override { return kSlices; }

    RoundResult
    round(int slice, LayerClock *clock) override
    {
        const nand::Chip &chip = *chip_;
        const ecc::EccModel ecc_model(ecc::EccConfig{16384, 145});
        const core::LatencyParams latency;
        const core::VendorRetryPolicy vendor(chip.model());
        const core::SentinelPolicy sentinel(
            *tables_, chip.model().defaultVoltages());
        const int pages = chip.geometry().pagesPerWordline();
        const int wordlines = chip.geometry().wordlinesPerBlock();

        const auto stream = [&](std::uint64_t arm, int block, int page) {
            return util::hashWords({seed_, arm,
                                    static_cast<std::uint64_t>(block),
                                    static_cast<std::uint64_t>(page)});
        };

        SliceTally t;
        for (int w = 0; w < kWearPoints; ++w) {
            const int block = wearBlock(w, slice);
            if (clock) {
                // Traced-run probe of the batched sensing path: build
                // the data-region view of every wordline the sentinel
                // arm reads, once each.
                timed(clock, "nandsim.vth_view_s", [&] {
                    std::size_t cells = 0;
                    for (int wl = 0; wl < wordlines; wl += kSentinelStride)
                        cells += nand::WordlineVthView::dataRegion(
                                     chip, block, wl)
                                     .cells();
                    return cells;
                });
            }
            for (int page = 0; page < pages; ++page) {
                t.vendor.add(timed(clock, "core.evaluate_s.vendor", [&] {
                    return core::evaluateBlock(
                        chip, block, vendor, ecc_model, overlay_, latency,
                        page, kVendorStride, 1,
                        stream(kVendorStream, block, page));
                }));
                t.sentinel.add(
                    timed(clock, "core.evaluate_s.sentinel", [&] {
                        return core::evaluateBlock(
                            chip, block, sentinel, ecc_model, overlay_,
                            latency, page, kSentinelStride, 1,
                            stream(kSentinelStream, block, page));
                    }));
            }
        }

        // The cache+model arm: state depends on read order, so it runs
        // serially, training over every block and page of the slice
        // before the measured pass.
        core::VoltageCache cache;
        core::VoltagePredictor model;
        core::SentinelPolicy learned(*tables_,
                                     chip.model().defaultVoltages());
        learned.attachCache(&cache);
        learned.attachModel(&model);
        core::VoltageCache::Stats cache0;
        core::VoltagePredictor::Stats model0;
        timed(clock, "core.evaluate_s.model", [&] {
            for (int pass = 0; pass < 2; ++pass) {
                if (pass == 1) {
                    cache0 = cache.stats();
                    model0 = model.stats();
                }
                for (int w = 0; w < kWearPoints; ++w) {
                    const int block = wearBlock(w, slice);
                    for (int page = 0; page < pages; ++page) {
                        (pass ? t.measure : t.train)
                            .add(core::evaluateBlock(
                                chip, block, learned, ecc_model, overlay_,
                                latency, page, kModelStride, 1,
                                stream(pass ? kMeasureStream : kTrainStream,
                                       block, page)));
                    }
                }
            }
        });
        const core::VoltageCache::Stats cache1 = cache.stats();
        const core::VoltagePredictor::Stats model1 = model.stats();
        t.cacheHits = cache1.hits - cache0.hits;
        t.cacheLookups = t.cacheHits + (cache1.misses - cache0.misses)
            + (cache1.stales - cache0.stales);
        t.fastHits = model1.fastHits - model0.fastHits;
        t.fastAttempts = model1.fastAttempts - model0.fastAttempts;
        t.observes = model1.observes;

        // An operation is a read session. A session that ends
        // uncorrectable is a simulated outcome, not a failed operation:
        // it is counted in core.read.failures and priced into the
        // latency percentiles. An operation fails when a session the
        // round asked for did not run.
        RoundResult r;
        const auto expected = [&](int stride) {
            return static_cast<std::uint64_t>(kWearPoints * pages
                                              * ((wordlines + stride - 1)
                                                 / stride));
        };
        const ArmTally *arms[] = {&t.vendor, &t.sentinel, &t.train,
                                  &t.measure};
        const int strides[] = {kVendorStride, kSentinelStride, kModelStride,
                               kModelStride};
        for (int a = 0; a < 4; ++a) {
            const std::uint64_t want = expected(strides[a]);
            r.ops += want;
            if (arms[a]->sessions < want)
                r.failedOps += want - arms[a]->sessions;
        }

        Digest d;
        for (const ArmTally *arm : arms) {
            d.add(arm->metrics.toJson());
            d.add(arm->firstTry);
        }
        d.add(model.stateJson());
        util::MetricsRegistry cm;
        cache.exportMetrics(cm);
        model.exportMetrics(cm);
        d.add(cm.toJson());
        r.digest = d.value();
        tallies_[static_cast<std::size_t>(slice)] = std::move(t);
        return r;
    }

    PassSummary
    summary() const override
    {
        SliceTally t;
        for (const SliceTally &s : tallies_)
            t.merge(s);
        const ArmTally &sn = t.sentinel;
        const util::MetricsRegistry &sm = sn.metrics;
        const util::LatencyHistogram *lat =
            sm.findHistogram("read.latency_us");
        const double sessions = static_cast<double>(sn.sessions);
        const double p99 = tailQuantile(sn.sessions, 0.99);

        PassSummary r;
        r.sim["sim_read_p50_us"] = lat ? lat->percentile(0.5) : 0.0;
        r.sim["sim_read_p99_us"] = lat ? lat->percentile(p99) : 0.0;
        r.sim["sim_retries_per_read"] =
            share(static_cast<double>(sm.counter("read.retries")), sessions);
        r.sim["sim_latency_reduction"] =
            1.0 - share(sn.latencyMean(), t.vendor.latencyMean());
        // No host writes reach a device here: write amplification is 1
        // by definition (FtlStats::waf of an unwritten FTL).
        r.sim["sim_waf"] = 1.0;

        r.counts["core.read.attempts_per_session"] =
            share(static_cast<double>(sm.counter("read.attempts")), sessions);
        r.counts["core.read.sense_ops_per_session"] = share(
            static_cast<double>(sm.counter("read.sense_ops")), sessions);
        r.counts["core.read.assist_reads_per_session"] = share(
            static_cast<double>(sm.counter("read.assist_reads")), sessions);
        r.counts["core.read.failures"] = static_cast<double>(
            t.vendor.failures + sn.failures + t.train.failures
            + t.measure.failures);
        r.counts["core.infer.first_try_share"] =
            share(static_cast<double>(sn.firstTry), sessions);
        const double calib =
            static_cast<double>(sm.counter("read.calib.case1_tune_further")
                                + sm.counter("read.calib.case2_tune_back")
                                + sm.counter("read.calib.converged"));
        r.counts["core.calib.converged_share"] = share(
            static_cast<double>(sm.counter("read.calib.converged")), calib);
        r.counts["core.cache.hit_share"] =
            share(static_cast<double>(t.cacheHits),
                  static_cast<double>(t.cacheLookups));
        r.counts["core.model.fast_hit_share"] =
            share(static_cast<double>(t.fastHits),
                  static_cast<double>(t.fastAttempts));
        r.counts["core.model.observes"] = static_cast<double>(t.observes);
        // Every attempt is one decode; a session that succeeds ends on
        // exactly one successful decode.
        r.counts["ecc.decode_success_share"] =
            share(sessions - static_cast<double>(sn.failures),
                  static_cast<double>(sm.counter("read.attempts")));
        return r;
    }

    int threads() const override { return 1; }

    std::string
    record() const override
    {
        SliceTally t;
        for (const SliceTally &s : tallies_)
            t.merge(s);
        const ArmTally *arms[] = {&t.vendor, &t.sentinel, &t.train,
                                  &t.measure};
        const char *names[] = {"current-flash", "sentinel", "model_train",
                               "model_measure"};
        std::ostringstream os;
        os << "{\"workload\": \"chip_read\", \"loop\": \"closed\""
           << ", \"loop_note\": \"read sessions back to back, one thread\""
           << ", \"geometry\": \"paper TLC, 256 wordlines x 3 pages\""
           << ", \"wear_points\": [";
        for (int i = 0; i < kWearPoints; ++i) {
            os << (i ? ", " : "") << "{\"pe\": " << kWear[i].peCycles
               << ", \"retention_h\": " << kWear[i].retentionHours
               << ", \"blocks\": " << kSlices << "}";
        }
        os << "], \"arms\": [\"current-flash\", \"sentinel\", "
              "\"sentinel+model+cache (train, then measure)\"]";
        for (const char *what : {"sessions", "failed_sessions"}) {
            os << ", \"" << what << "_per_pass\": {";
            for (int a = 0; a < 4; ++a) {
                os << (a ? ", " : "") << '"' << names[a] << "\": "
                   << (what[0] == 's' ? arms[a]->sessions
                                      : arms[a]->failures);
            }
            os << "}";
        }
        os << ", \"sim_read_p99_us_quantile\": "
           << tailQuantile(t.sentinel.sessions, 0.99) << "}";
        return os.str();
    }

  private:
    std::uint64_t seed_ = 0;
    std::optional<nand::Chip> chip_;
    std::optional<nand::SentinelOverlay> overlay_;
    std::optional<core::Characterization> tables_;
    /** The latest round of each slice. */
    std::vector<SliceTally> tallies_;
};

} // namespace

std::unique_ptr<Workload>
makeChipRead()
{
    return std::make_unique<ChipRead>();
}

} // namespace perfbench
