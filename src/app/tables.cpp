#include "refpga/app/tables.hpp"

#include <cmath>

#include "refpga/common/contracts.hpp"

namespace refpga::app {

std::vector<std::int32_t> sine_table(int size, int bits) {
    REFPGA_EXPECTS(size >= 2 && bits >= 2 && bits <= 18);
    const double amp = static_cast<double>((1 << (bits - 1)) - 1);
    std::vector<std::int32_t> table(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i)
        table[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
            std::lround(amp * std::sin(2.0 * M_PI * i / size)));
    return table;
}

std::vector<std::int32_t> cosine_table(int size, int bits) {
    REFPGA_EXPECTS(size >= 2 && bits >= 2 && bits <= 18);
    const double amp = static_cast<double>((1 << (bits - 1)) - 1);
    std::vector<std::int32_t> table(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i)
        table[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
            std::lround(amp * std::cos(2.0 * M_PI * i / size)));
    return table;
}

std::vector<std::uint32_t> sinus_dac_codes() {
    const auto sine = sine_table(kSinusLutSize, 9);  // +-255
    std::vector<std::uint32_t> codes;
    codes.reserve(kSinusLutSize);
    for (const std::int32_t s : sine)
        codes.push_back(static_cast<std::uint32_t>(128 + (s * 2) / 5));  // +-102
    return codes;
}

std::vector<std::int32_t> cordic_atan_table(int stages, int angle_bits) {
    REFPGA_EXPECTS(stages >= 1 && stages <= 24);
    REFPGA_EXPECTS(angle_bits >= 8 && angle_bits <= 24);
    std::vector<std::int32_t> table(static_cast<std::size_t>(stages));
    const double scale = std::pow(2.0, angle_bits) / (2.0 * M_PI);
    for (int i = 0; i < stages; ++i)
        table[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
            std::lround(std::atan(std::pow(2.0, -i)) * scale));
    return table;
}

std::int32_t cordic_inv_gain_q15(int stages) {
    double k = 1.0;
    for (int i = 0; i < stages; ++i) k *= std::sqrt(1.0 + std::pow(2.0, -2 * i));
    return static_cast<std::int32_t>(std::lround(32768.0 / k));
}

std::int32_t level_slope_q10(const AppParams& params) {
    const int span = params.c_full_q4() - params.c_empty_q4();
    REFPGA_EXPECTS(span > 0);
    return static_cast<std::int32_t>((32768LL * 1024 + span / 2) / span);
}

}  // namespace refpga::app
