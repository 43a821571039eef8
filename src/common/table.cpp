#include "refpga/common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "refpga/common/contracts.hpp"

namespace refpga {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
    REFPGA_EXPECTS(!header_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
    REFPGA_EXPECTS(cells.size() == header_.size());
    rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string Table::render() const {
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    std::ostringstream os;
    const auto rule = [&] {
        os << '+';
        for (const std::size_t w : width) os << std::string(w + 2, '-') << '+';
        os << '\n';
    };
    const auto line = [&](const std::vector<std::string>& cells) {
        os << '|';
        for (std::size_t c = 0; c < cells.size(); ++c)
            os << ' ' << std::setw(static_cast<int>(width[c])) << std::left
               << cells[c] << " |";
        os << '\n';
    };
    rule();
    line(header_);
    rule();
    for (const auto& row : rows_) line(row);
    rule();
    return os.str();
}

}  // namespace refpga
