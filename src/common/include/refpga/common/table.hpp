// Plain-text table rendering for the benchmark harness.
//
// Every bench binary reproduces a paper table/figure as rows on stdout; this
// keeps the formatting consistent and the bench code focused on content.
#pragma once

#include <iosfwd>
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

    // Streaming primitives: render() is a composition of these, so a caller
    // that cannot hold all rows at once (fleet::CampaignReport, which
    // streams its rows from a spool) can grow widths incrementally and emit
    // rows later with byte-identical formatting.
    [[nodiscard]] static std::vector<std::size_t> widths_of(
        const std::vector<std::string>& header);
    static void grow_widths(std::vector<std::size_t>& widths,
                            const std::vector<std::string>& cells);
    static void emit_row(std::ostream& os, const std::vector<std::size_t>& widths,
                         const std::vector<std::string>& cells);
    static void emit_rule(std::ostream& os, const std::vector<std::size_t>& widths);

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace refpga
