#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(std::vector<double> v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double
tailQuantile(std::size_t samples, double wanted)
{
    static const double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.5};
    for (double q : kLadder) {
        if (q > wanted)
            continue;
        // Samples strictly beyond the q-quantile of n samples.
        const double beyond = static_cast<double>(samples) * (1.0 - q);
        if (beyond + 1e-9 >= 10.0)
            return q;
    }
    return 0.5;
}

void
Digest::add(std::string_view bytes)
{
    for (unsigned char c : bytes) {
        h_ ^= c;
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    add(std::string_view(bytes, sizeof bytes));
}

void
Digest::add(std::uint64_t v)
{
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    add(std::string_view(bytes, sizeof bytes));
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::map<std::string, double> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, value] : metrics) {
        char num[40];
        std::snprintf(num, sizeof num, "%.17g", value);
        os << sep << '"' << name << "\": " << num;
        sep = ", ";
    }
    os << "}}";
    return os.str();
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
