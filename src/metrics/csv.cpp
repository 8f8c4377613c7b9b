#include "metrics/csv.hpp"

#include <iomanip>
#include <limits>
#include <sstream>

#include "common/env.hpp"

namespace pearl {
namespace metrics {

namespace {

/**
 * The one canonical field list.  Both directions — rendering
 * (metricFields) and journal restore (parseMetricCells) — walk this
 * visitor, so the schema cannot diverge between them.  `f` must expose
 * integer(name, u64&) and real(name, double&) overload points.
 */
template <typename F>
void
visitMetricFields(RunMetrics &m, F &&f)
{
    f.integer("cycles", m.cycles);
    f.integer("deliveredPackets", m.deliveredPackets);
    f.integer("deliveredFlits", m.deliveredFlits);
    f.integer("deliveredBits", m.deliveredBits);
    f.integer("cpuPackets", m.cpuPackets);
    f.integer("gpuPackets", m.gpuPackets);
    f.real("throughputFlitsPerCycle", m.throughputFlitsPerCycle);
    f.real("throughputGbps", m.throughputGbps);
    f.real("avgLatencyCycles", m.avgLatencyCycles);
    f.real("cpuLatencyCycles", m.cpuLatencyCycles);
    f.real("gpuLatencyCycles", m.gpuLatencyCycles);
    f.real("totalEnergyJ", m.totalEnergyJ);
    f.real("energyPerBitPj", m.energyPerBitPj);
    f.real("laserPowerW", m.laserPowerW);
    f.integer("corruptedPackets", m.corruptedPackets);
    f.integer("reservationDrops", m.reservationDrops);
    f.integer("retransmittedPackets", m.retransmittedPackets);
    f.integer("ackTimeouts", m.ackTimeouts);
    f.integer("droppedPackets", m.droppedPackets);
    f.integer("thermalUnlockedCycles", m.thermalUnlockedCycles);
    for (std::size_t s = 0; s < m.residency.size(); ++s)
        f.real("residency" + std::to_string(s), m.residency[s]);
    f.integer("policyFallbackEntries", m.policyFallbackEntries);
    f.integer("policyFallbackExits", m.policyFallbackExits);
    f.integer("policyFallbackWindows", m.policyFallbackWindows);
}

/** Visitor collecting (name, value) descriptors for rendering. */
struct CollectFields
{
    std::vector<MetricField> fields;

    void
    integer(const char *name, std::uint64_t &v)
    {
        fields.push_back({name, true, v, 0.0});
    }

    void
    real(const std::string &name, double &v)
    {
        fields.push_back({name, false, 0, v});
    }
};

/** Visitor assigning parsed cells back into a RunMetrics. */
struct AssignFields
{
    const std::vector<std::string> &cells;
    std::size_t next = 0;
    bool ok = true;

    void
    integer(const char *, std::uint64_t &v)
    {
        if (!ok || next >= cells.size() ||
            !parseU64(cells[next], v))
            ok = false;
        ++next;
    }

    void
    real(const std::string &, double &v)
    {
        if (!ok || next >= cells.size() ||
            !parseDouble(cells[next], v))
            ok = false;
        ++next;
    }
};

} // namespace

std::vector<MetricField>
metricFields(const RunMetrics &m)
{
    CollectFields collect;
    // The visitor takes mutable refs (shared with the parser); rendering
    // only reads them.
    visitMetricFields(const_cast<RunMetrics &>(m), collect);
    return std::move(collect.fields);
}

bool
parseMetricCells(const std::vector<std::string> &cells, RunMetrics &out)
{
    RunMetrics parsed;
    AssignFields assign{cells};
    visitMetricFields(parsed, assign);
    if (!assign.ok || assign.next != cells.size())
        return false;
    parsed.configName = out.configName;
    parsed.pairLabel = out.pairLabel;
    out = parsed;
    return true;
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

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ','))
        cells.push_back(cell);
    return cells;
}

} // namespace metrics
} // namespace pearl
