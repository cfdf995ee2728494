/**
 * @file
 * The benchmark harness: aggregation, layer timers, round results
 * and the one-line JSON result.
 *
 * Everything a workload needs to report goes through this header; the
 * workloads themselves (chip_read.cc, ssd_replay.cc, fleet_mixed.cc)
 * only call the simulator's public functions and wrap each call in a
 * LayerClock when the run is traced. Nothing here reaches into src/.
 */
#ifndef SENTINELFLASH_PERFBENCH_HARNESS_HH
#define SENTINELFLASH_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

// ---- aggregation -----------------------------------------------------

/** Median of @p v (mean of the two middle values for an even count). */
double median(std::vector<double> v);

/** Arithmetic mean of @p v (0 for no values). */
double mean(std::vector<double> v);

/**
 * The highest percentile, at most @p wanted, that has at least ten of
 * @p samples beyond it, taken from the ladder 0.999, 0.99, 0.95, 0.9,
 * 0.5. Returns 0.5 when even the median lacks ten samples beyond it.
 */
double tailQuantile(std::size_t samples, double wanted);

// ---- host time -------------------------------------------------------

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Host seconds spent inside each layer's public calls. The benchmark
 * wraps each call from the outside; a null clock (untraced rounds)
 * calls straight through without reading the clock.
 */
class LayerClock
{
  public:
    void add(const std::string &layer, double seconds)
    {
        totals_[layer] += seconds;
    }
    const std::map<std::string, double> &totals() const { return totals_; }

  private:
    std::map<std::string, double> totals_;
};

/** Call @p f, charging its host time to @p layer when @p clock is set. */
template <class F>
decltype(auto)
timed(LayerClock *clock, const char *layer, F &&f)
{
    struct Charge
    {
        LayerClock *clock;
        const char *layer;
        double start;
        ~Charge()
        {
            if (clock)
                clock->add(layer, nowSeconds() - start);
        }
    } charge{clock, layer, clock ? nowSeconds() : 0.0};
    return f();
}

// ---- simulated-statistics digest -------------------------------------

/**
 * FNV-1a over the bytes of every simulated statistic a round produced.
 * Two rounds of the same inputs (traced or not) must give the same
 * digest, which is how "bit for bit" is checked.
 */
class Digest
{
  public:
    void add(std::string_view bytes);
    void add(double v);
    void add(std::uint64_t v);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---- result line -----------------------------------------------------

/**
 * The binary's result line: one JSON object with the keys `correct`,
 * `attempted`, `failed` and `metrics`, where `metrics` maps each
 * metric name to its value, printed with all its digits. The runner
 * (run.py) adds each metric's unit from BENCHMARK.json and refuses a
 * line whose names differ from the declared ones.
 */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::map<std::string, double> &metrics);

// ---- workloads -------------------------------------------------------

/** What one round (one slice of a workload's timed operations) gave. */
struct RoundResult
{
    std::uint64_t ops = 0;       ///< operations attempted
    std::uint64_t failedOps = 0; ///< operations failed or not completed
    /** Digest of every simulated statistic of the round. */
    std::uint64_t digest = 0;
    /**
     * Per-layer values derived from the round's own host times (set
     * by traced rounds only, e.g. host nanoseconds per simulated
     * event).
     */
    std::map<std::string, double> hostDerived;
    /** Output checks that failed, one description each. */
    std::vector<std::string> checkFailures;
    /** Host seconds the round spent on output checks, not timed. */
    double checkSeconds = 0.0;
};

/** The simulated figures of one pass over every slice. */
struct PassSummary
{
    /** End-to-end simulated metrics (sim_*), by name. */
    std::map<std::string, double> sim;
    /** Per-layer simulated counts and ratios, by metric name. */
    std::map<std::string, double> counts;
};

/**
 * One workload. setup() builds everything the timed phase needs and
 * charges its layers to @p clock. The timed operations are cut into
 * slices() slices of like size; round(j) runs slice j once and is a
 * pure function of the set-up state and j, so every round of a slice
 * returns the same digest. summary() gives the simulated figures of
 * one pass over all slices (after each slice has run at least once).
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup(std::uint64_t seed, LayerClock &clock) = 0;
    virtual int slices() const = 0;
    virtual RoundResult round(int slice, LayerClock *clock) = 0;
    virtual PassSummary summary() const = 0;
    /** Worker threads the workload's host time comes from. */
    virtual int threads() const = 0;
    /**
     * A JSON object describing the run: loop kind, offered rates,
     * sizes, sample counts and which percentiles were reported.
     */
    virtual std::string record() const = 0;
};

std::unique_ptr<Workload> makeChipRead();
std::unique_ptr<Workload> makeSsdReplay();
std::unique_ptr<Workload> makeFleetMixed();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Share @p num / @p den, 0 when @p den is 0. */
inline double
share(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace perfbench

#endif // SENTINELFLASH_PERFBENCH_HARNESS_HH
