#include "an/report.h"

#include <iomanip>
#include <sstream>

#include "sim/logging.h"

namespace memento {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TextTable::newRow()
{
    rows_.emplace_back();
}

void
TextTable::cell(const std::string &value)
{
    panic_if(rows_.empty(), "cell() before newRow()");
    panic_if(rows_.back().size() >= headers_.size(),
             "row has more cells than headers");
    rows_.back().push_back(value);
}

void
TextTable::cell(double value, int precision)
{
    cell(fixedStr(value, precision));
}

void
TextTable::cell(std::uint64_t value)
{
    cell(std::to_string(value));
}

void
TextTable::row(std::vector<std::string> cells)
{
    panic_if(cells.size() > headers_.size(),
             "row has more cells than headers");
    rows_.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (row[c].size() > widths[c])
                widths[c] = row[c].size();
        }
    }

    auto print_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            const std::string &value = c < cells.size() ? cells[c] : "";
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << value;
        }
        os << '\n';
    };

    print_row(headers_);
    std::size_t line = 0;
    for (std::size_t w : widths)
        line += w + 2;
    os << std::string(line, '-') << '\n';
    for (const auto &row : rows_)
        print_row(row);
}

std::string
fixedStr(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string
percentStr(double fraction, int precision)
{
    return fixedStr(fraction * 100.0, precision) + '%';
}

std::string
asciiBar(double fraction, unsigned width)
{
    if (fraction < 0.0)
        fraction = 0.0;
    if (fraction > 1.0)
        fraction = 1.0;
    const unsigned filled =
        static_cast<unsigned>(fraction * width + 0.5);
    std::string bar(filled, '#');
    bar.append(width - filled, '.');
    return bar;
}

} // namespace memento
