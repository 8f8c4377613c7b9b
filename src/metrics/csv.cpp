#include "metrics/csv.hpp"

#include <iomanip>
#include <limits>
#include <sstream>
#include <utility>

namespace pearl {
namespace metrics {

std::vector<MetricField>
metricFields(const RunMetrics &m)
{
    std::vector<MetricField> fields;
    const auto integer = [&fields](const char *name, std::uint64_t v) {
        fields.push_back({name, true, v, 0.0});
    };
    const auto real = [&fields](std::string name, double v) {
        fields.push_back({std::move(name), false, 0, v});
    };
    integer("cycles", m.cycles);
    integer("deliveredPackets", m.deliveredPackets);
    integer("deliveredFlits", m.deliveredFlits);
    integer("deliveredBits", m.deliveredBits);
    integer("cpuPackets", m.cpuPackets);
    integer("gpuPackets", m.gpuPackets);
    real("throughputFlitsPerCycle", m.throughputFlitsPerCycle);
    real("throughputGbps", m.throughputGbps);
    real("avgLatencyCycles", m.avgLatencyCycles);
    real("cpuLatencyCycles", m.cpuLatencyCycles);
    real("gpuLatencyCycles", m.gpuLatencyCycles);
    real("totalEnergyJ", m.totalEnergyJ);
    real("energyPerBitPj", m.energyPerBitPj);
    real("laserPowerW", m.laserPowerW);
    integer("corruptedPackets", m.corruptedPackets);
    integer("reservationDrops", m.reservationDrops);
    integer("retransmittedPackets", m.retransmittedPackets);
    integer("ackTimeouts", m.ackTimeouts);
    integer("droppedPackets", m.droppedPackets);
    integer("thermalUnlockedCycles", m.thermalUnlockedCycles);
    for (std::size_t s = 0; s < m.residency.size(); ++s)
        real("residency" + std::to_string(s), m.residency[s]);
    integer("policyFallbackEntries", m.policyFallbackEntries);
    integer("policyFallbackExits", m.policyFallbackExits);
    integer("policyFallbackWindows", m.policyFallbackWindows);
    return fields;
}

std::string
formatMetricValue(const MetricField &f)
{
    if (f.isInteger)
        return std::to_string(f.u);
    std::ostringstream oss;
    oss << std::setprecision(std::numeric_limits<double>::max_digits10)
        << f.d;
    return oss.str();
}

std::string
csvHeader(const std::vector<std::string> &key_columns)
{
    std::string line;
    for (const std::string &key : key_columns) {
        if (!line.empty())
            line += ",";
        line += key;
    }
    for (const MetricField &f : metricFields(RunMetrics{}))
        line += "," + f.name;
    return line;
}

std::string
csvRow(const std::vector<std::string> &key_cells, const RunMetrics &m)
{
    std::string line;
    for (const std::string &cell : key_cells) {
        if (!line.empty())
            line += ",";
        line += cell;
    }
    for (const MetricField &f : metricFields(m)) {
        line += ',';
        line += formatMetricValue(f);
    }
    return line;
}

} // namespace metrics
} // namespace pearl
