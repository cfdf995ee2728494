/**
 * @file
 * fleet_mixed: small simulated SSDs in the three default cohorts under
 * open Poisson arrivals, with the background scrubber, the online
 * voltage model and health telemetry on.
 *
 * The cohorts differ in their mapping stack: light is page FTL with
 * greedy GC, mainstream page FTL with cost-benefit GC, worn the FAST
 * hybrid FTL. Each cohort is offered a fixed rate it sustains without a
 * growing host backlog; the backlog guard fails the run when a cohort's
 * host queue wait says otherwise.
 *
 * Set-up builds the chip and measures each cohort's vendor-ladder read
 * cost on a block re-aged to the cohort's midpoint (chip sensing
 * happens only here). The timed phase is one slice: a round runs the
 * fleet, serializes it, parses it back for tail attribution and
 * reconciliation, and feeds the health stream to a FleetMonitor. One
 * operation is one host request completed. The fleet runs on two
 * threads.
 */
#include <optional>
#include <sstream>

#include "core/read_policy.hh"
#include "core/sentinel_layout.hh"
#include "harness.hh"
#include "mon/monitor.hh"
#include "nandsim/chip.hh"
#include "ssd/fleet/fleet.hh"
#include "ssd/fleet/report.hh"
#include "ssd/ftl/ftl_factory.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace perfbench
{

namespace
{

using namespace flash;

constexpr int kThreads = 2;
constexpr int kDevices = 512;
constexpr int kRequests = 400;
constexpr int kEvalBlock = 1;

/**
 * The chip the cohorts' read costs are measured on, and the data it
 * holds (bench_fleet's): a property of the modelled devices, the same
 * for every workload seed. The seed draws the fleet.
 */
constexpr std::uint64_t kChipSeed = 0x5eed2020;

/** Simulated time between scrub scans, and probes per scan. */
constexpr double kScrubIntervalUs = 100000.0;
constexpr int kScrubBudget = 4;

/** Probed RBER above which the scrubber queues a block for refresh. */
constexpr double kRefreshRber = 1.5e-3;

/** Simulated time between health records of a device. */
constexpr double kHealthIntervalUs = 1000000.0;

/**
 * The backlog guard: a cohort whose host queue-wait p99 exceeds this is
 * building a backlog, and its read latencies would measure the queue.
 */
constexpr double kBacklogQueueWaitUs = 1000.0;

/** One cohort's mapping stack and offered rate. */
struct CohortSetting
{
    const char *name;
    ssd::FtlKind ftl;
    ssd::GcVictimPolicy gc;
    double ratePerQueueUs; ///< requests per simulated us, per queue
};

const CohortSetting kCohorts[] = {
    {"light", ssd::FtlKind::Page, ssd::GcVictimPolicy::Greedy, 1e-5},
    {"mainstream", ssd::FtlKind::Page, ssd::GcVictimPolicy::CostBenefit,
     1e-5},
    {"worn", ssd::FtlKind::Fast, ssd::GcVictimPolicy::Greedy, 1e-6},
};

/** Cohort-indexed read costs measured on the re-aged chip block. */
class MeasuredFleetEnv : public ssd::fleet::FleetEnv
{
  public:
    explicit MeasuredFleetEnv(std::vector<ssd::EmpiricalReadCost> costs)
        : costs_(std::move(costs)), warm_(1)
    {
    }

    ssd::ReadCostSource &
    coldCost(const ssd::fleet::DeviceProfile &p) override
    {
        return costs_.at(static_cast<std::size_t>(p.cohort));
    }

    ssd::ReadCostSource *
    warmCost(const ssd::fleet::DeviceProfile &) override
    {
        return &warm_;
    }

  private:
    std::vector<ssd::EmpiricalReadCost> costs_;
    ssd::FixedReadCost warm_;
};

double
counter(const util::MetricsRegistry &m, const char *name)
{
    return static_cast<double>(m.counter(name));
}

/**
 * Modelled device service time of a page read that takes @p attempts
 * decode attempts, @p senses sense operations and @p assists assist
 * reads: SsdSim's per-read cost accounting (sense, per-command base,
 * decode and one page transfer per attempt), without queueing. It is
 * linear in the counts, so the service time of mean counts is the mean
 * service time.
 */
double
serviceUs(const ssd::fleet::FleetConfig &cfg, double attempts, double senses,
          double assists)
{
    const ssd::SsdTiming &t = cfg.timing;
    return senses * t.senseUs + (attempts + assists) * t.readBaseUs
        + attempts * (t.decodeUs + cfg.ssd.pageKb * t.transferUsPerKb);
}

class FleetMixed : public Workload
{
  public:
    void
    setup(std::uint64_t seed, LayerClock &clock) override
    {
        cfg_.devices = kDevices;
        cfg_.requests = kRequests;
        cfg_.timing.readBaseUs = 5.0;
        cfg_.timing.decodeUs = 2.0;
        cfg_.healthIntervalUs = kHealthIntervalUs;
        cfg_.scrub.intervalUs = kScrubIntervalUs;
        cfg_.scrub.probeBudget = kScrubBudget;
        cfg_.scrub.refreshRber = kRefreshRber;
        cfg_.model = true;
        cfg_.cohorts = ssd::fleet::defaultCohorts();
        for (std::size_t i = 0; i < cfg_.cohorts.size(); ++i) {
            ssd::fleet::CohortSpec &c = cfg_.cohorts[i];
            util::fatalIf(c.name != kCohorts[i].name,
                          "fleet_mixed: default cohort " + c.name
                              + " where " + kCohorts[i].name
                              + " was expected");
            c.mode = ssd::ArrivalMode::OpenPoisson;
            c.ratePerQueueUs = kCohorts[i].ratePerQueueUs;
            c.ftl = kCohorts[i].ftl;
            c.gcPolicy = kCohorts[i].gc;
        }
        cfg_.seed = seed;

        nand::ChipGeometry geom = nand::paperTlcGeometry();
        geom.blocks = 2;
        nand::Chip chip(geom, nand::tlcVoltageParams(), kChipSeed);
        const std::optional<nand::SentinelOverlay> overlay =
            core::makeOverlay(chip.geometry(), core::SentinelConfig{});
        chip.programBlock(kEvalBlock, kChipSeed ^ 0x9d, overlay);
        const ecc::EccModel ecc_model(ecc::EccConfig{16384, 145});
        const core::VendorRetryPolicy vendor(chip.model());
        const int msb = chip.grayCode().msbPage();
        std::vector<ssd::EmpiricalReadCost> costs;
        timed(&clock, "ssd.read_cost_s", [&] {
            for (const ssd::fleet::CohortSpec &c : cfg_.cohorts) {
                chip.setPeCycles(kEvalBlock, (c.peMin + c.peMax) / 2);
                chip.refresh(kEvalBlock);
                chip.age(kEvalBlock,
                         0.5 * (c.retentionHoursMin + c.retentionHoursMax),
                         c.tempC);
                costs.push_back(ssd::measureReadCost(
                    chip, kEvalBlock, vendor, ecc_model, overlay, msb, 4,
                    kThreads));
            }
        });
        for (const ssd::EmpiricalReadCost &c : costs) {
            coldServiceUs_.push_back(serviceUs(cfg_, 1.0 + c.meanRetries(),
                                               c.meanSenseOps(),
                                               c.meanAssistReads()));
        }
        env_.emplace(std::move(costs));
    }

    int slices() const override { return 1; }

    RoundResult
    round(int, LayerClock *clock) override
    {
        RoundResult r;
        const ssd::fleet::FleetResult fleet =
            timed(clock, "ssd.fleet.run_s", [&] {
                return ssd::fleet::runFleet(cfg_, *env_, kThreads);
            });

        std::stringstream lines, health;
        timed(clock, "ssd.fleet.serialize_s", [&] {
            ssd::fleet::writeFleetJsonLines(fleet, lines);
            ssd::fleet::writeHealthLines(fleet, health);
        });

        ssd::fleet::FleetReportData data;
        std::string mismatch;
        timed(clock, "ssd.fleet.report_s", [&] {
            data = ssd::fleet::parseFleetLines(lines);
            const ssd::fleet::TailAttribution tail =
                ssd::fleet::attributeTail(data);
            mismatch = ssd::fleet::checkReconciliation(data, tail);
        });
        if (!mismatch.empty())
            r.checkFailures.push_back("fleet reconciliation: " + mismatch);

        const std::string health_text = health.str();
        std::ostringstream frames;
        mon::FollowStats follow;
        std::uint64_t alerts = 0;
        std::string mon_mismatch;
        timed(clock, "mon.monitor_s", [&] {
            mon::FleetMonitor monitor(mon::MonitorConfig{}, frames, nullptr);
            monitor.feed(health_text);
            monitor.finish();
            follow = monitor.followStats();
            alerts = monitor.alertsFired();
            mon_mismatch = monitor.reconcile(data.rollupCounters);
        });
        if (!mon_mismatch.empty())
            r.checkFailures.push_back("monitor reconciliation: "
                                      + mon_mismatch);

        // Operations: every host request of the fleet.
        for (const ssd::fleet::DeviceResult &d : fleet.devices) {
            r.ops += static_cast<std::uint64_t>(kRequests);
            r.failedOps += d.requests < static_cast<std::uint64_t>(kRequests)
                ? static_cast<std::uint64_t>(kRequests) - d.requests
                : 0;
        }

        // The backlog guard, per cohort.
        const std::size_t cohorts = cfg_.cohorts.size();
        std::vector<util::LatencyHistogram> wait(cohorts), read(cohorts);
        std::vector<std::pair<double, double>> waf(cohorts);
        std::vector<double> page_reads(cohorts, 0.0);
        cohortDevices_.assign(cohorts, 0);
        for (const ssd::fleet::DeviceResult &d : fleet.devices) {
            const std::size_t c = static_cast<std::size_t>(d.profile.cohort);
            ++cohortDevices_[c];
            if (const util::LatencyHistogram *h =
                    d.metrics.findHistogram("frontend.queue_wait_us"))
                wait[c].merge(*h);
            if (const util::LatencyHistogram *h =
                    d.metrics.findHistogram("ssd.read.request_latency_us"))
                read[c].merge(*h);
            page_reads[c] += counter(d.metrics, "ssd.read.page_ops");
            waf[c].first += counter(d.metrics, "ftl.waf.num");
            waf[c].second += counter(d.metrics, "ftl.waf.den");
        }
        cohortWaitP99_.assign(cohorts, 0.0);
        cohortReads_.assign(cohorts, 0);
        cohortReadP99_.assign(cohorts, 0.0);
        cohortWaf_.assign(cohorts, 0.0);
        for (std::size_t c = 0; c < cohorts; ++c) {
            cohortReads_[c] = read[c].count();
            cohortReadP99_[c] = read[c].percentile(0.99);
            cohortWaf_[c] = share(waf[c].first, waf[c].second);
            cohortWaitP99_[c] = wait[c].percentile(0.99);
            if (cohortWaitP99_[c] > kBacklogQueueWaitUs) {
                r.checkFailures.push_back(
                    "backlog guard: cohort " + cfg_.cohorts[c].name
                    + " host queue-wait p99 "
                    + std::to_string(cohortWaitP99_[c]) + " us exceeds "
                    + std::to_string(kBacklogQueueWaitUs) + " us");
            }
        }

        const util::MetricsRegistry &m = fleet.rollup;
        PassSummary &sum = summary_;
        sum = PassSummary{};
        const util::LatencyHistogram *reads =
            m.findHistogram("fleet.ssd.read.request_latency_us");
        readSamples_ = reads ? reads->count() : 0;
        p99Quantile_ = tailQuantile(readSamples_, 0.99);
        sum.sim["sim_read_p50_us"] = reads ? reads->percentile(0.5) : 0.0;
        sum.sim["sim_read_p99_us"] =
            reads ? reads->percentile(p99Quantile_) : 0.0;
        const double page_ops = counter(m, "fleet.ssd.read.page_ops");
        const double attempts = counter(m, "fleet.ssd.read.attempts");
        sum.sim["sim_retries_per_read"] = share(attempts, page_ops) - 1.0;
        // The scrubber keeps blocks warm, so their reads skip the
        // vendor ladder. Against the same reads all paying their
        // cohort's cold (ladder) cost, the mean service time falls by:
        double cold_us = 0.0;
        for (std::size_t c = 0; c < cohorts; ++c)
            cold_us += page_reads[c] * coldServiceUs_[c];
        const double served_us =
            page_ops * serviceUs(cfg_, share(attempts, page_ops),
                                 share(counter(m, "fleet.ssd.read.sense_ops"),
                                       page_ops),
                                 share(counter(m, "fleet.ssd.read.assist_reads"),
                                       page_ops));
        sum.sim["sim_latency_reduction"] = 1.0 - share(served_us, cold_us);
        sum.sim["sim_waf"] = share(counter(m, "fleet.ftl.waf.num"),
                                   counter(m, "fleet.ftl.waf.den"));

        const double write_ops = counter(m, "fleet.ssd.write.page_ops");
        const double migrated = counter(m, "fleet.ssd.gc.migrated_pages");
        sum.counts["ssd.read.page_ops"] = page_ops;
        sum.counts["ssd.write.page_ops"] = write_ops;
        sum.counts["ssd.gc.migrated_pages"] = migrated;
        sum.counts["ssd.gc.erases"] = counter(m, "fleet.ssd.gc.erases");
        const util::LatencyHistogram *queue =
            m.findHistogram("fleet.ssd.read.queue_us");
        sum.counts["ssd.read.queue_us_p99"] =
            queue ? queue->percentile(0.99) : 0.0;
        const util::LatencyHistogram *stall =
            m.findHistogram("fleet.ssd.write.gc_stall_us");
        sum.counts["ssd.write.gc_stall_us"] = stall ? stall->sum() : 0.0;
        sum.counts["ssd.footprint_mb"] =
            static_cast<double>(fleet.maxFootprintBytes) / (1024.0 * 1024.0);
        const util::LatencyHistogram *host_wait =
            m.findHistogram("fleet.frontend.queue_wait_us");
        sum.counts["ssd.host_frontend.queue_wait_p99_us"] =
            host_wait ? host_wait->percentile(0.99) : 0.0;
        sum.counts["ssd.ftl.gc_runs"] = counter(m, "fleet.ftl.gc_runs");
        sum.counts["ssd.ftl.merge.switch"] = counter(m, "fleet.ftl.merge.switch");
        sum.counts["ssd.ftl.merge.partial"] =
            counter(m, "fleet.ftl.merge.partial");
        sum.counts["ssd.ftl.merge.full"] = counter(m, "fleet.ftl.merge.full");
        const double probes = counter(m, "fleet.scrub.probes");
        sum.counts["ssd.scrubber.probes"] = probes;
        sum.counts["ssd.scrubber.probes_per_read"] = share(probes, page_ops);
        sum.counts["ssd.scrubber.refresh_done_share"] =
            share(counter(m, "fleet.scrub.refresh.completed"),
                  counter(m, "fleet.scrub.refresh.queued"));
        const double warm = counter(m, "fleet.scrub.read.warm");
        sum.counts["ssd.scrubber.warm_read_share"] =
            share(warm, warm + counter(m, "fleet.scrub.read.cold"));
        sum.counts["core.model.observes"] = counter(m, "fleet.model.observe");
        sum.counts["mon.lines"] = static_cast<double>(follow.lines);
        sum.counts["mon.gaps"] = static_cast<double>(follow.gaps);
        sum.counts["mon.alerts_fired"] = static_cast<double>(alerts);
        if (clock) {
            const double events = page_ops + write_ops + migrated;
            r.hostDerived["ssd.host_ns_per_event"] =
                share(clock->totals().at("ssd.fleet.run_s"), events) * 1e9;
        }

        Digest digest;
        digest.add(lines.str());
        digest.add(health_text);
        digest.add(frames.str());
        r.digest = digest.value();
        return r;
    }

    PassSummary summary() const override { return summary_; }

    int threads() const override { return kThreads; }

    std::string
    record() const override
    {
        std::ostringstream os;
        os << "{\"workload\": \"fleet_mixed\", \"loop\": \"open\""
           << ", \"loop_note\": \"Poisson arrivals at a fixed offered rate "
              "per queue, per cohort\""
           << ", \"devices\": " << kDevices
           << ", \"requests_per_device\": " << kRequests
           << ", \"scrub_interval_us\": " << kScrubIntervalUs
           << ", \"scrub_budget\": " << kScrubBudget
           << ", \"health_interval_us\": " << kHealthIntervalUs
           << ", \"backlog_guard_queue_wait_p99_us\": " << kBacklogQueueWaitUs
           << ", \"cohorts\": [";
        for (std::size_t i = 0; i < cfg_.cohorts.size(); ++i) {
            const ssd::fleet::CohortSpec &c = cfg_.cohorts[i];
            os << (i ? ", " : "") << "{\"name\": \"" << c.name
               << "\", \"ftl\": \"" << ssd::ftlKindName(c.ftl)
               << "\", \"gc_policy\": \"" << ssd::gcPolicyName(c.gcPolicy)
               << "\", \"queues\": " << c.queues
               << ", \"offered_rate_per_queue_per_us\": " << c.ratePerQueueUs
               << ", \"devices\": "
               << (i < cohortDevices_.size() ? cohortDevices_[i] : 0)
               << ", \"host_queue_wait_p99_us\": "
               << (i < cohortWaitP99_.size() ? cohortWaitP99_[i] : 0.0)
               << ", \"reads\": "
               << (i < cohortReads_.size() ? cohortReads_[i] : 0)
               << ", \"read_p99_us\": "
               << (i < cohortReadP99_.size() ? cohortReadP99_[i] : 0.0)
               << ", \"waf\": "
               << (i < cohortWaf_.size() ? cohortWaf_[i] : 0.0)
               << "}";
        }
        os << "], \"fleet_reads\": " << readSamples_
           << ", \"sim_read_p99_us_quantile\": " << p99Quantile_ << "}";
        return os.str();
    }

  private:
    ssd::fleet::FleetConfig cfg_;
    std::optional<MeasuredFleetEnv> env_;
    /** Mean service time of a cold read, per cohort (set-up). */
    std::vector<double> coldServiceUs_;
    /** The simulated figures of the latest round. */
    PassSummary summary_;
    std::vector<double> cohortWaitP99_;
    std::vector<int> cohortDevices_;
    std::vector<std::uint64_t> cohortReads_;
    std::vector<double> cohortReadP99_;
    std::vector<double> cohortWaf_;
    std::uint64_t readSamples_ = 0;
    double p99Quantile_ = 0.99;
};

} // namespace

std::unique_ptr<Workload>
makeFleetMixed()
{
    return std::make_unique<FleetMixed>();
}

} // namespace perfbench
