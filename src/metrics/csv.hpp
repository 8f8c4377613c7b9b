/**
 * @file
 * The one RunMetrics CSV schema.
 *
 * Header text, field order and value formatting are defined here and
 * nowhere else — the golden-metrics regression suite, the benches and
 * the Runner's PEARL_METRICS_DUMP output all share this module, so the
 * checked-in golden files and bench output can never silently diverge.
 * The module only writes rows; nothing in the library reads them back.
 *
 * Format contract (matches the checked-in goldens under tests/golden
 * byte for byte): integers print via std::to_string, doubles via the default
 * ostream format at max_digits10 precision (round-trippable).
 */

#ifndef PEARL_METRICS_CSV_HPP
#define PEARL_METRICS_CSV_HPP

#include <string>
#include <vector>

#include "metrics/experiment.hpp"

namespace pearl {
namespace metrics {

/** One named, typed field of a RunMetrics row. */
struct MetricField
{
    std::string name;
    bool isInteger = false;
    std::uint64_t u = 0;
    double d = 0.0;
};

/** Every metric field of `m`, in the canonical CSV column order. */
std::vector<MetricField> metricFields(const RunMetrics &m);

/** Render one field's value exactly as the CSV schema prescribes. */
std::string formatMetricValue(const MetricField &f);

/**
 * The canonical header line: the key columns (e.g. {"pair"} for the
 * golden files, {"config", "pair"} for metric dumps) followed by every
 * metric field name.  No trailing newline.
 */
std::string csvHeader(const std::vector<std::string> &key_columns);

/** One data row matching csvHeader(keys-of-`key_cells`).  No newline. */
std::string csvRow(const std::vector<std::string> &key_cells,
                   const RunMetrics &m);

} // namespace metrics
} // namespace pearl

#endif // PEARL_METRICS_CSV_HPP
