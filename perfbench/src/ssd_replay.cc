/**
 * @file
 * ssd_replay: fig14's shape. The eight MSR-like traces replay open-loop
 * at their own timestamps through SsdSim::run, each on a fresh default
 * 8-channel page-FTL device, once with current-flash read costs and
 * once with sentinel read costs.
 *
 * Set-up builds the aged chip (P/E 5000 + 1 year), characterizes it,
 * measures both arms' per-read costs with measureReadCost and generates
 * the traces. The timed phase is cut into one slice per trace: a round
 * constructs and replays that trace's two devices. One operation is
 * one host request replayed, device construction included. Everything
 * runs on one thread.
 */
#include <optional>
#include <sstream>

#include "core/characterization.hh"
#include "core/read_policy.hh"
#include "core/sentinel_layout.hh"
#include "harness.hh"
#include "nandsim/chip.hh"
#include "ssd/ssd_sim.hh"
#include "trace/msr_workloads.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace perfbench
{

namespace
{

using namespace flash;

/** Host requests per trace. */
constexpr std::size_t kRequests = 60000;

/**
 * The chip the read costs are measured on, and the data it holds: the
 * figure harnesses' batch seed and fig14's data seed. The costs are a
 * property of the modelled device, the same for every workload seed;
 * the seed picks the traces.
 */
constexpr std::uint64_t kChipSeed = 0x5eed2020;

/** The evaluation block (block 0 is characterized). */
constexpr int kEvalBlock = 1;

/** Wordline stride of the factory sweep (set-up). */
constexpr int kCharStride = 16;

/** Per-arm totals of one round or one pass. */
struct ArmTotals
{
    std::vector<double> readLatencies;
    double readLatencySum = 0.0;
    std::uint64_t pageOps = 0;
    std::uint64_t attempts = 0;
    std::uint64_t wafNum = 0;
    std::uint64_t wafDen = 0;

    void
    merge(const ArmTotals &o)
    {
        readLatencies.insert(readLatencies.end(), o.readLatencies.begin(),
                             o.readLatencies.end());
        readLatencySum += o.readLatencySum;
        pageOps += o.pageOps;
        attempts += o.attempts;
        wafNum += o.wafNum;
        wafDen += o.wafDen;
    }
};

/** What one trace's two replays gave. */
struct SliceTotals
{
    ArmTotals arms[2];            ///< current-flash, sentinel
    util::MetricsRegistry all;    ///< both arms' device registries
    std::size_t footprint = 0;    ///< largest device footprint, bytes
};

class SsdReplay : public Workload
{
  public:
    void
    setup(std::uint64_t seed, LayerClock &clock) override
    {
        seed_ = seed;
        nand::ChipGeometry geom = nand::paperTlcGeometry();
        geom.blocks = 2;
        nand::Chip chip(geom, nand::tlcVoltageParams(), kChipSeed);
        core::CharOptions opt;
        opt.wordlineStride = kCharStride;
        opt.threads = 1;
        const core::Characterization tables =
            timed(&clock, "core.characterize_s", [&] {
                return core::FactoryCharacterizer(opt).run(chip);
            });
        const std::optional<nand::SentinelOverlay> overlay =
            core::makeOverlay(chip.geometry(), core::SentinelConfig{});
        chip.programBlock(kEvalBlock, kChipSeed ^ 0x14, overlay);
        chip.setPeCycles(kEvalBlock, 5000);
        chip.refresh(kEvalBlock);
        chip.age(kEvalBlock, 8760.0, 25.0);

        const ecc::EccModel ecc_model(ecc::EccConfig{16384, 145});
        const core::VendorRetryPolicy vendor(chip.model());
        const core::SentinelPolicy sentinel(tables,
                                            chip.model().defaultVoltages());
        const int msb = chip.grayCode().msbPage();
        timed(&clock, "ssd.read_cost_s", [&] {
            vcost_.emplace(ssd::measureReadCost(chip, kEvalBlock, vendor,
                                                ecc_model, overlay, msb, 4,
                                                1));
            scost_.emplace(ssd::measureReadCost(chip, kEvalBlock, sentinel,
                                                ecc_model, overlay, msb, 4,
                                                1));
        });

        timed(&clock, "trace.generate_s", [&] {
            for (const trace::WorkloadSpec &w : trace::msrWorkloads()) {
                trace::WorkloadSpec spec = w;
                spec.meanInterarrivalUs *= 0.5; // one busy volume per SSD
                names_.push_back(w.name);
                traces_.push_back(trace::generateTrace(
                    spec, kRequests,
                    util::hashWords({seed, 0x7ace, traces_.size()})));
            }
        });
        slices_.resize(traces_.size());
        invariantsChecked_.assign(traces_.size(), false);
    }

    int slices() const override { return static_cast<int>(traces_.size()); }

    RoundResult
    round(int slice, LayerClock *clock) override
    {
        ssd::SsdConfig cfg; // default 8-channel, page FTL, greedy GC
        ssd::SsdTiming timing;
        timing.readBaseUs = 5.0;
        timing.decodeUs = 2.0;

        const std::size_t t = static_cast<std::size_t>(slice);
        const std::vector<trace::TraceRecord> &tr = traces_[t];
        RoundResult r;
        Digest digest;
        SliceTotals st;
        for (int arm = 0; arm < 2; ++arm) {
            ssd::EmpiricalReadCost &cost = arm ? *scost_ : *vcost_;
            std::optional<ssd::SsdSim> sim;
            timed(clock, "ssd.ftl.precondition_s", [&] {
                sim.emplace(cfg, timing, cost,
                            util::hashWords({seed_, 0x551, t}));
            });
            const ssd::SimReport rep =
                timed(clock, "ssd.replay_s", [&] { return sim->run(tr); });
            st.footprint = std::max(st.footprint, sim->footprintBytes());

            // Every round of a slice replays the same devices bit for
            // bit (the harness compares digests), so the first round's
            // check of each device covers them all.
            if (!invariantsChecked_[t]) {
                const double c0 = nowSeconds();
                try {
                    sim->ftl().checkInvariants();
                } catch (const std::exception &e) {
                    r.checkFailures.push_back("ssd_replay " + names_[t]
                                              + ": FTL invariants: "
                                              + e.what());
                }
                r.checkSeconds += nowSeconds() - c0;
            }

            const std::uint64_t done =
                rep.readLatencyUs.count() + rep.writeLatencyUs.count();
            r.ops += tr.size();
            r.failedOps += tr.size() > done ? tr.size() - done : 0;

            ArmTotals &a = st.arms[arm];
            a.readLatencies = rep.readLatencies;
            for (double v : rep.readLatencies)
                a.readLatencySum += v;
            a.pageOps = rep.metrics.counter("ssd.read.page_ops");
            a.attempts = rep.metrics.counter("ssd.read.attempts");
            a.wafNum = rep.ftl.wafNumerator();
            a.wafDen = rep.ftl.wafDenominator();
            st.all.merge(rep.metrics);

            digest.add(rep.metrics.toJson());
            for (double v : rep.readLatencies)
                digest.add(v);
        }
        invariantsChecked_[t] = true;

        if (clock) {
            const double events =
                static_cast<double>(st.all.counter("ssd.read.page_ops")
                                    + st.all.counter("ssd.write.page_ops")
                                    + st.all.counter("ssd.gc.migrated_pages"));
            r.hostDerived["ssd.host_ns_per_event"] =
                share(clock->totals().at("ssd.replay_s"), events) * 1e9;
        }
        r.digest = digest.value();
        slices_[t] = std::move(st);
        return r;
    }

    PassSummary
    summary() const override
    {
        ArmTotals v, s;
        util::MetricsRegistry all;
        std::size_t footprint = 0;
        for (const SliceTotals &st : slices_) {
            v.merge(st.arms[0]);
            s.merge(st.arms[1]);
            all.merge(st.all);
            footprint = std::max(footprint, st.footprint);
        }

        PassSummary r;
        const double p99 = tailQuantile(s.readLatencies.size(), 0.99);
        r.sim["sim_read_p50_us"] = util::percentile(s.readLatencies, 0.5);
        r.sim["sim_read_p99_us"] = util::percentile(s.readLatencies, p99);
        r.sim["sim_retries_per_read"] =
            share(static_cast<double>(s.attempts), static_cast<double>(s.pageOps))
            - 1.0;
        const double s_mean = share(s.readLatencySum,
                                    static_cast<double>(s.readLatencies.size()));
        const double v_mean = share(v.readLatencySum,
                                    static_cast<double>(v.readLatencies.size()));
        r.sim["sim_latency_reduction"] = 1.0 - share(s_mean, v_mean);
        r.sim["sim_waf"] = share(static_cast<double>(s.wafNum),
                                 static_cast<double>(s.wafDen));

        r.counts["ssd.read.page_ops"] =
            static_cast<double>(all.counter("ssd.read.page_ops"));
        r.counts["ssd.write.page_ops"] =
            static_cast<double>(all.counter("ssd.write.page_ops"));
        r.counts["ssd.gc.migrated_pages"] =
            static_cast<double>(all.counter("ssd.gc.migrated_pages"));
        r.counts["ssd.gc.erases"] =
            static_cast<double>(all.counter("ssd.gc.erases"));
        const util::LatencyHistogram *queue =
            all.findHistogram("ssd.read.queue_us");
        r.counts["ssd.read.queue_us_p99"] =
            queue ? queue->percentile(0.99) : 0.0;
        const util::LatencyHistogram *stall =
            all.findHistogram("ssd.write.gc_stall_us");
        r.counts["ssd.write.gc_stall_us"] = stall ? stall->sum() : 0.0;
        r.counts["ssd.footprint_mb"] =
            static_cast<double>(footprint) / (1024.0 * 1024.0);
        r.counts["core.read.attempts_per_session"] = 1.0 + scost_->meanRetries();
        r.counts["core.read.sense_ops_per_session"] = scost_->meanSenseOps();
        r.counts["core.read.assist_reads_per_session"] =
            scost_->meanAssistReads();
        return r;
    }

    int threads() const override { return 1; }

    std::string
    record() const override
    {
        std::size_t reads = 0;
        for (const SliceTotals &st : slices_)
            reads += st.arms[1].readLatencies.size();
        std::ostringstream os;
        os << "{\"workload\": \"ssd_replay\", \"loop\": \"open\""
           << ", \"loop_note\": \"each request is submitted at its trace "
              "timestamp (interarrival halved, as fig14)\""
           << ", \"traces\": " << traces_.size()
           << ", \"requests_per_trace\": " << kRequests
           << ", \"arms\": [\"current-flash\", \"sentinel\"]"
           << ", \"device\": \"default 8-channel page FTL, greedy GC\""
           << ", \"sentinel_reads_per_pass\": " << reads
           << ", \"sim_read_p99_us_quantile\": " << tailQuantile(reads, 0.99)
           << "}";
        return os.str();
    }

  private:
    std::uint64_t seed_ = 0;
    std::optional<ssd::EmpiricalReadCost> vcost_, scost_;
    std::vector<std::string> names_;
    std::vector<std::vector<trace::TraceRecord>> traces_;
    /** The latest round of each slice, and whose FTLs were checked. */
    std::vector<SliceTotals> slices_;
    std::vector<bool> invariantsChecked_;
};

} // namespace

std::unique_ptr<Workload>
makeSsdReplay()
{
    return std::make_unique<SsdReplay>();
}

} // namespace perfbench
