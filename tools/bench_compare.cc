/**
 * @file
 * Gate a microbenchmark JSON export (bench_kernels, bench_model) on
 * minimum speedups.
 *
 *   bench_compare FILE.json --min-speedup X [--kernel NAME]
 *
 * Checks every kernels.*.speedup (or just --kernel NAME) against X.
 * Exit codes: 0 pass, 1 a speedup below X, 2 usage or parse error.
 * The CI perf-smoke job runs it against the committed thresholds. To
 * compare two JSON documents leaf by leaf, use tools/metrics_diff
 * (--rel R for a relative tolerance).
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "util/json.hh"
#include "util/logging.hh"

using flash::util::JsonValue;

namespace
{

std::string
slurp(const char *path)
{
    std::ifstream in(path);
    flash::util::fatalIf(!in, std::string("cannot open ") + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** kernels.*.speedup >= min_speedup (optionally one kernel only). */
int
checkSpeedups(const JsonValue &doc, double min_speedup,
              const std::string &only_kernel)
{
    const JsonValue *kernels = doc.find("kernels");
    if (!kernels || !kernels->isObject()) {
        std::cerr << "bench_compare: no \"kernels\" object in input\n";
        return 2;
    }
    int checked = 0;
    int failures = 0;
    for (const auto &[name, kernel] : kernels->object) {
        if (!only_kernel.empty() && name != only_kernel)
            continue;
        const JsonValue *speedup = kernel.find("speedup");
        if (!speedup || !speedup->isNumber()) {
            std::cerr << "bench_compare: kernel " << name
                      << " has no numeric speedup\n";
            return 2;
        }
        ++checked;
        const bool ok = speedup->number >= min_speedup;
        std::cout << name << ": speedup " << speedup->number
                  << (ok ? " >= " : " < ") << min_speedup
                  << (ok ? "" : "  FAIL") << '\n';
        failures += !ok;
    }
    if (checked == 0) {
        std::cerr << "bench_compare: no kernel matched"
                  << (only_kernel.empty() ? "" : " " + only_kernel) << '\n';
        return 2;
    }
    return failures ? 1 : 0;
}

void
usage()
{
    std::cerr << "usage: bench_compare FILE.json --min-speedup X "
                 "[--kernel NAME]\n";
    std::exit(2);
}

/** Whole-string parse of a --min-speedup value; usage error otherwise. */
double
parseMinSpeedup(const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= 0.0))
        usage();
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *file = nullptr;
    double min_speedup = -1.0;
    std::string only_kernel;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--min-speedup") && i + 1 < argc) {
            min_speedup = parseMinSpeedup(argv[++i]);
        } else if (!std::strcmp(argv[i], "--kernel") && i + 1 < argc) {
            only_kernel = argv[++i];
        } else if (!file) {
            file = argv[i];
        } else {
            usage();
        }
    }
    if (!file || min_speedup < 0.0)
        usage();

    try {
        return checkSpeedups(flash::util::parseJson(slurp(file)),
                             min_speedup, only_kernel);
    } catch (const std::exception &e) {
        std::cerr << "bench_compare: " << e.what() << '\n';
        return 2;
    }
}
