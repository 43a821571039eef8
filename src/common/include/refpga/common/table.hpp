// Plain-text table rendering for the bench binaries and the campaign report.
//
// Every bench binary reproduces a paper table/figure as rows on stdout, and
// fleet::CampaignReport renders its scenario, summary and per-axis tables
// from rows it holds in memory; this keeps the formatting consistent and
// the callers focused on content.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace refpga {

class Table {
public:
    explicit Table(std::vector<std::string> header);

    void add_row(std::vector<std::string> cells);

    /// Convenience: formats doubles with the given precision.
    static std::string num(double v, int precision = 2);

    [[nodiscard]] std::string render() const;

    [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace refpga
