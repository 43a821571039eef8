#include "refpga/app/params.hpp"

#include "refpga/app/tables.hpp"
#include "refpga/common/contracts.hpp"

namespace refpga::app {

void AppParams::validate() const {
    // The DDS phase accumulator wraps mod window with a mask, and the
    // hardware sample counter's done flag is bit log2(window).
    REFPGA_EXPECTS(window >= 2 && (window & (window - 1)) == 0);
    REFPGA_EXPECTS(bin >= 1 && bin < window / 2);
    REFPGA_EXPECTS(modulator_hz > 0.0 && signal_hz > 0.0 && adc_decimation >= 1);
    // bin / window cycles per PCM sample must be the excitation's
    // signal_hz / pcm_rate. Cross-multiplied, so integral rates compare
    // exactly instead of through the rounded pcm_rate_hz().
    REFPGA_EXPECTS(static_cast<double>(bin) * modulator_hz ==
                   static_cast<double>(window) * signal_hz * adc_decimation);
    // The sinus generator steps its LUT once per modulator tick.
    REFPGA_EXPECTS(modulator_hz == kSinusLutSize * signal_hz);
    // The table generators' bounds (tables.cpp).
    REFPGA_EXPECTS(table_bits >= 2 && table_bits <= 18);
    REFPGA_EXPECTS(cos_table_bits >= 2 && cos_table_bits <= 18);
    REFPGA_EXPECTS(cordic_stages >= 1 && cordic_stages <= 24);
    REFPGA_EXPECTS(angle_bits >= 8 && angle_bits <= 24);
}

}  // namespace refpga::app
