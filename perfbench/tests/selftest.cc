/**
 * @file
 * Self-tests of the benchmark harness: the median and mean, the tail-percentile
 * rule, the result line and the digest. Prints one line per failed
 * expectation and exits non-zero when any failed. (tests/test_run.py
 * covers the quartile spread, the units and metric set the runner
 * takes from BENCHMARK.json and the exit status of failed runs.)
 *
 *   .bench_build/perfbench/perfbench_selftest
 */
#include <cmath>
#include <iostream>
#include <string>

#include "harness.hh"
#include "util/json.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::cout << "FAIL: " << what << '\n';
    }
}

void
expectNear(double got, double want, const std::string &what)
{
    expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
           what + ": got " + std::to_string(got) + ", want "
               + std::to_string(want));
}

void
testAverages()
{
    expectNear(median({3.0}), 3.0, "median of one value");
    expectNear(median({5.0, 1.0, 3.0}), 3.0, "median of an odd count");
    expectNear(median({4.0, 1.0, 3.0, 2.0}), 2.5, "median of an even count");
    expectNear(median({}), 0.0, "median of nothing");
    expectNear(mean({1.0, 2.0, 6.0}), 3.0, "mean");
    expectNear(mean({}), 0.0, "mean of nothing");
}

void
testTailQuantile()
{
    // p99 needs 1000 samples for ten beyond it.
    expectNear(tailQuantile(1000, 0.99), 0.99, "p99 at 1000 samples");
    expectNear(tailQuantile(999, 0.99), 0.95, "p99 falls back to p95");
    expectNear(tailQuantile(200, 0.99), 0.95, "p95 at 200 samples");
    expectNear(tailQuantile(199, 0.99), 0.9, "p95 falls back to p90");
    expectNear(tailQuantile(99, 0.99), 0.5, "p90 falls back to p50");
    expectNear(tailQuantile(5, 0.99), 0.5, "tiny counts report the median");
    expectNear(tailQuantile(10000, 0.999), 0.999, "p999 at 10000 samples");
    expectNear(tailQuantile(1000000, 0.99), 0.99,
               "never above the wanted percentile");
}

/** Member @p key of a parsed object; a null value when absent. */
const flash::util::JsonValue &
member(const flash::util::JsonValue &v, const std::string &key)
{
    static const flash::util::JsonValue null;
    const flash::util::JsonValue *m = v.find(key);
    return m ? *m : null;
}

void
testResultLine()
{
    const std::map<std::string, double> metrics = {
        {"wall_s", 0.1234567890123}, {"sim_waf", 1.0}};
    const std::string line = resultJson(true, 10, 0, metrics);
    const flash::util::JsonValue v = flash::util::parseJson(line);
    expect(v.isObject() && v.object.size() == 4,
           "result has exactly four keys");
    expect(member(v, "correct").boolean, "correct is true");
    expect(member(v, "attempted").number == 10.0, "attempted");
    expect(member(v, "failed").number == 0.0, "failed");
    const flash::util::JsonValue &m = member(v, "metrics");
    expect(m.isObject() && m.object.size() == 2, "every metric printed");
    expect(member(m, "wall_s").number == 0.1234567890123,
           "values keep all their digits");
    expect(member(m, "sim_waf").number == 1.0, "value of sim_waf");
}

void
testDigest()
{
    Digest a, b, c;
    a.add(std::string("ssd.read.page_ops"));
    a.add(1.0);
    b.add(std::string("ssd.read.page_ops"));
    b.add(1.0);
    c.add(std::string("ssd.read.page_ops"));
    c.add(std::nextafter(1.0, 2.0));
    expect(a.value() == b.value(), "equal inputs give equal digests");
    expect(a.value() != c.value(), "a one-ulp change alters the digest");
}

} // namespace

int
main()
{
    testAverages();
    testTailQuantile();
    testResultLine();
    testDigest();
    if (failures) {
        std::cout << failures << " harness self-test(s) failed\n";
        return 1;
    }
    std::cout << "harness self-tests passed\n";
    return 0;
}
