/**
 * @file
 * Regenerates Table IV (the benchmarks used for testing the ML model)
 * and documents the full synthetic-profile suite standing in for the
 * PARSEC / SPLASH2 / OpenCL SDK programs (see DESIGN.md).
 */

#include "bench_common.hpp"

using namespace pearl;

namespace {

void
profileTable(const std::vector<traffic::BenchmarkProfile> &profiles,
             const std::string &title)
{
    std::cout << title << "\n";
    TextTable t({"abbrev", "benchmark name", "rate on/off", "on-frac",
                 "ws lines", "wr", "shared", "stream"});
    for (const auto &p : profiles) {
        t.addRow({p.abbrev, p.name,
                  TextTable::num(p.accessRateOn, 3) + "/" +
                      TextTable::num(p.accessRateOff, 3),
                  TextTable::num(p.onFraction(), 2),
                  std::to_string(p.workingSetLines),
                  TextTable::num(p.writeFraction, 2),
                  TextTable::num(p.sharedFraction, 2),
                  TextTable::num(p.streamFraction, 2)});
    }
    t.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    bench::banner("Table IV — Benchmarks used for testing ML",
                  "Table IV + Section IV-A splits");

    traffic::BenchmarkSuite suite;

    std::cout << "Test benchmarks (Table IV):\n";
    TextTable t({"Core Type", "Abbreviation", "Benchmark Name"});
    for (const char *a : {"FA", "fmm", "Rad", "x264"})
        t.addRow({"CPU", a, suite.find(a).name});
    for (const char *a : {"DCT", "Dwrt", "QRS", "Reduc"})
        t.addRow({"GPU", a, suite.find(a).name});
    t.print(std::cout);
    std::cout << "\n";

    std::cout << "Splits: " << suite.trainingPairs().size()
              << " training pairs (6 CPU x 6 GPU), "
              << suite.validationPairs().size()
              << " validation pairs (2 x 2), " << suite.testPairs().size()
              << " test pairs (4 x 4)\n\n";

    profileTable(suite.cpuBenchmarks(), "All CPU profiles:");
    profileTable(suite.gpuBenchmarks(), "All GPU profiles:");
    return 0;
}
