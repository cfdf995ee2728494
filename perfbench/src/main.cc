/**
 * @file
 * perfbench: run one workload of the layer-attributed benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * A run sets the workload up several times (setup_s is the median),
 * then repeats passes over its slices until S seconds have passed;
 * each slice run is one round, and wall_s is the mean round time over
 * the timed phase.
 * Untraced (--trace 0) it prints the end-to-end metrics; traced
 * (--trace 1) it alternates untraced and traced passes and prints the
 * per-layer metrics, the tracing overhead and the host time no layer
 * accounts for. Every round of a slice must reproduce that slice's
 * first round's simulated statistics bit for bit, traced or not.
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics (name to value; run.py adds
 * the units). The exit status is 0 only when every output check
 * passed; usage errors exit with status 2.
 */
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hh"

using namespace perfbench;

namespace
{

/** Set-ups per run; setup_s and the set-up layers are their medians. */
constexpr int kSetupReps = 3;

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--inject-check-failure]\n";
    std::exit(2);
}

long
parseLong(const std::string &flag, const std::string &text, long lo,
          long hi)
{
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno == ERANGE || v < lo || v > hi)
        usage(flag + ": expected an integer in [" + std::to_string(lo)
              + ", " + std::to_string(hi) + "], got \"" + text + "\"");
    return v;
}

/** The workload called @p name, or null when there is none. */
std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "chip_read")
        return makeChipRead();
    if (name == "ssd_replay")
        return makeSsdReplay();
    if (name == "fleet_mixed")
        return makeFleetMixed();
    return nullptr;
}

/**
 * Per-layer @p stat (median or mean) over a set of clocks; layers
 * absent from a clock count as 0 there.
 */
std::map<std::string, double>
perLayer(const std::vector<std::map<std::string, double>> &runs,
         double (*stat)(std::vector<double>))
{
    std::map<std::string, std::vector<double>> series;
    for (const auto &run : runs)
        for (const auto &[layer, v] : run)
            series[layer];
    for (const auto &run : runs) {
        for (auto &[layer, values] : series) {
            const auto it = run.find(layer);
            values.push_back(it == run.end() ? 0.0 : it->second);
        }
    }
    std::map<std::string, double> out;
    for (const auto &[layer, values] : series)
        out[layer] = stat(values);
    return out;
}

double
sumOf(const std::map<std::string, double> &m)
{
    double s = 0.0;
    for (const auto &[k, v] : m)
        s += v;
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    long seed = -1, seconds = -1, trace = -1;
    bool inject = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + ": missing value");
            return argv[++i];
        };
        if (a == "--workload") {
            workload = value();
        } else if (a == "--seed") {
            seed = parseLong(a, value(), 0, 2147483647L);
        } else if (a == "--seconds") {
            seconds = parseLong(a, value(), 1, 3600);
        } else if (a == "--trace") {
            trace = parseLong(a, value(), 0, 1);
        } else if (a == "--inject-check-failure") {
            inject = true;
        } else {
            usage("unknown argument \"" + a + "\"");
        }
    }
    if (workload.empty() || seed < 0 || seconds < 0 || trace < 0)
        usage("--workload, --seed, --seconds and --trace are required");
    if (!makeWorkload(workload))
        usage("unknown workload \"" + workload + "\"");
    const bool traced_run = trace == 1;

    std::vector<std::string> failures;
    std::map<std::string, double> values;
    std::uint64_t attempted = 0, failed = 0;
    try {
        // ---- set-up, several times ---------------------------------
        std::vector<double> setup_walls, setup_rest;
        std::vector<std::map<std::string, double>> setup_layers;
        std::unique_ptr<Workload> wl;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            wl.reset(); // free the previous set-up before timing the next
            std::unique_ptr<Workload> w = makeWorkload(workload);
            LayerClock clock;
            const double t0 = nowSeconds();
            w->setup(static_cast<std::uint64_t>(seed), clock);
            const double dt = nowSeconds() - t0;
            setup_walls.push_back(dt);
            setup_layers.push_back(clock.totals());
            setup_rest.push_back(dt - sumOf(clock.totals()));
            wl = std::move(w);
        }

        // ---- timed passes ------------------------------------------
        // Whole passes over the slices until --seconds have passed; a
        // traced run alternates untraced and traced passes and runs at
        // least one of each.
        const int slices = wl->slices();
        std::vector<std::uint64_t> digests(static_cast<std::size_t>(slices));
        std::vector<double> plain_walls, traced_walls, traced_rest;
        double plain_ops = 0.0;
        std::vector<std::map<std::string, double>> round_layers;
        const double start = nowSeconds();
        int passes = 0;
        do {
            const bool traced = traced_run && passes % 2 == 1;
            for (int j = 0; j < slices; ++j) {
                LayerClock clock;
                const double t0 = nowSeconds();
                RoundResult r = wl->round(j, traced ? &clock : nullptr);
                const double dt = nowSeconds() - t0 - r.checkSeconds;
                if (traced) {
                    std::map<std::string, double> layers = clock.totals();
                    traced_walls.push_back(dt);
                    traced_rest.push_back(dt - sumOf(layers));
                    for (const auto &[name, v] : r.hostDerived)
                        layers[name] = v;
                    round_layers.push_back(std::move(layers));
                } else {
                    plain_walls.push_back(dt);
                    plain_ops += static_cast<double>(r.ops);
                }

                // ---- output checks of the round ----------------
                const std::string where = "pass " + std::to_string(passes)
                    + (traced ? " (traced)" : "") + ", slice "
                    + std::to_string(j) + ": ";
                attempted += r.ops;
                failed += r.failedOps;
                for (const std::string &f : r.checkFailures)
                    failures.push_back(where + f);
                std::uint64_t &first = digests[static_cast<std::size_t>(j)];
                if (passes == 0)
                    first = r.digest;
                else if (r.digest != first)
                    failures.push_back(where + "simulated statistics differ "
                                               "from the slice's first round");
            }
            ++passes;
        } while (nowSeconds() - start < seconds
                 || (traced_run && traced_walls.empty()));
        if (inject)
            failures.push_back("injected check failure (--inject-check-failure)");

        // ---- metrics -----------------------------------------------
        // Round times are averaged over the timed phase, not taken as
        // medians: the host's speed shifts for tens of seconds at a
        // time, and a median snaps to whichever speed held most rounds
        // (see README.md, "Measured spread and bounds"). Means also
        // keep the per-layer times of a round summing to its time.
        const PassSummary sum = wl->summary();
        const double wall = mean(plain_walls);
        if (!traced_run) {
            values["wall_s"] = wall;
            values["setup_s"] = median(setup_walls);
            values["throughput_ops_s"] =
                share(plain_ops, wall * static_cast<double>(plain_walls.size()));
            values["peak_rss_mb"] = peakRssMb();
            for (const auto &[name, v] : sum.sim)
                values[name] = v;
        } else {
            for (const auto &[name, v] : perLayer(setup_layers, median))
                values[name] = v;
            for (const auto &[name, v] : perLayer(round_layers, mean))
                values[name] = v;
            for (const auto &[name, v] : sum.counts)
                values[name] = v;
            const double traced_wall = mean(traced_walls);
            values["trace.tracing_overhead_s"] = traced_wall - wall;
            values["timed.traced_round_s"] = traced_wall;
            values["timed.unattributed_s"] = mean(traced_rest);
            values["setup.unattributed_s"] = median(setup_rest);
            for (double rest : traced_rest) {
                if (rest < 0.0)
                    failures.push_back("per-layer host times exceed the "
                                       "traced round's wall time");
            }
        }

        std::cout << "{\"record\": " << wl->record()
                  << ", \"seed\": " << seed << ", \"trace\": " << trace
                  << ", \"threads\": " << wl->threads()
                  << ", \"setup_reps\": " << kSetupReps
                  << ", \"slices\": " << slices << ", \"passes\": " << passes
                  << ", \"rounds_plain\": " << plain_walls.size()
                  << ", \"rounds_traced\": " << traced_walls.size()
                  << ", \"untraced_round_times_s\": [";
        for (std::size_t k = 0; k < plain_walls.size(); ++k)
            std::cout << (k ? ", " : "") << plain_walls[k];
        std::cout << "]}\n";
    } catch (const std::exception &e) {
        failures.push_back(std::string("exception: ") + e.what());
    }

    failed += failures.size();
    const double fail_share =
        attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                  : 1.0;
    if (!traced_run)
        values["completed_op_share"] = 1.0 - fail_share;
    else
        values["failed_op_share"] = fail_share;

    // A metric that is not a number is one more failed check.
    for (auto &[name, v] : values) {
        if (!std::isfinite(v)) {
            failures.push_back("metric " + name + " is not finite");
            ++failed;
            v = 0.0;
        }
    }

    for (const std::string &f : failures)
        std::cerr << "perfbench: check failed: " << f << '\n';
    const bool correct = failures.empty() && failed == 0;
    if (attempted == 0)
        attempted = 1;
    std::cout << resultJson(correct, attempted, failed, values) << std::endl;
    return correct ? 0 : 1;
}
