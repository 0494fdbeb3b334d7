#include "util/table.hh"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace whisper
{

TableReporter::TableReporter(std::string title) : title_(std::move(title))
{
}

void
TableReporter::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
TableReporter::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
TableReporter::addRow(const std::string &label,
                      const std::vector<double> &vals, int precision)
{
    std::vector<std::string> cells;
    cells.reserve(vals.size() + 1);
    cells.push_back(label);
    for (double v : vals)
        cells.push_back(formatDouble(v, precision));
    rows_.push_back(std::move(cells));
}

std::string
TableReporter::formatDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

void
TableReporter::print(std::ostream &os) const
{
    size_t cols = header_.size();
    for (const auto &r : rows_)
        cols = std::max(cols, r.size());

    std::vector<size_t> width(cols, 0);
    auto grow = [&](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i)
            width[i] = std::max(width[i], row[i].size());
    };
    if (!header_.empty())
        grow(header_);
    for (const auto &r : rows_)
        grow(r);

    auto emit = [&](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i) {
            if (i == 0) {
                os << row[i]
                   << std::string(width[i] - row[i].size(), ' ');
            } else {
                os << "  "
                   << std::string(width[i] - row[i].size(), ' ')
                   << row[i];
            }
        }
        os << '\n';
    };

    os << "== " << title_ << " ==\n";
    if (!header_.empty()) {
        emit(header_);
        size_t total = 0;
        for (size_t w : width)
            total += w + 2;
        os << std::string(total, '-') << '\n';
    }
    for (const auto &r : rows_)
        emit(r);
    os << '\n';
}

void
TableReporter::print() const
{
    print(std::cout);
}

} // namespace whisper
