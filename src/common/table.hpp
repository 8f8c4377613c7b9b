/**
 * @file
 * Aligned text tables for the benchmark harness.
 *
 * Every bench binary regenerates one or more of the paper's tables or
 * figures; the TextTable renders the rows in a human-readable aligned
 * form.  Machine-readable rows come from PEARL_METRICS_DUMP.
 */

#ifndef PEARL_COMMON_TABLE_HPP
#define PEARL_COMMON_TABLE_HPP

#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace pearl {

/** A simple column-aligned table with a header row. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header)
        : header_(std::move(header))
    {}

    /** Append one row; the cell count should match the header. */
    void
    addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    /** Format a double with fixed precision for table cells. */
    static std::string
    num(double value, int precision = 3)
    {
        std::ostringstream oss;
        oss << std::fixed << std::setprecision(precision) << value;
        return oss.str();
    }

    /** Format a percentage (0.034 -> "3.4%"). */
    static std::string
    pct(double fraction, int precision = 1)
    {
        std::ostringstream oss;
        oss << std::fixed << std::setprecision(precision)
            << (fraction * 100.0) << "%";
        return oss.str();
    }

    /** Render the table with aligned columns. */
    void
    print(std::ostream &os) const
    {
        std::vector<std::size_t> width(header_.size(), 0);
        auto grow = [&](const std::vector<std::string> &row) {
            for (std::size_t c = 0; c < row.size() && c < width.size(); ++c)
                width[c] = std::max(width[c], row[c].size());
        };
        grow(header_);
        for (const auto &row : rows_)
            grow(row);

        auto emit = [&](const std::vector<std::string> &row) {
            for (std::size_t c = 0; c < width.size(); ++c) {
                const std::string &cell = c < row.size() ? row[c] : "";
                os << std::left << std::setw(static_cast<int>(width[c]) + 2)
                   << cell;
            }
            os << "\n";
        };
        emit(header_);
        for (std::size_t c = 0; c < width.size(); ++c)
            os << std::string(width[c], '-') << "  ";
        os << "\n";
        for (const auto &row : rows_)
            emit(row);
    }

    const std::vector<std::string> &header() const { return header_; }
    const std::vector<std::vector<std::string>> &rows() const { return rows_; }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace pearl

#endif // PEARL_COMMON_TABLE_HPP
