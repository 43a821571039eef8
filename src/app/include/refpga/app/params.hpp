// Shared numeric parameters of the capacity-measurement pipeline.
//
// One struct used by the hardware generators, the bit-exact golden models,
// the soft-core software and the system orchestrator, so all four agree on
// widths, window sizes and scale factors.
#pragma once

#include <cstdint>

namespace refpga::app {

struct AppParams {
    // Clocks / rates.
    double system_clock_hz = 50e6;  ///< MicroBlaze + data-processing clock
    double modulator_hz = 16e6;     ///< delta-sigma DAC/ADC modulator rate
    double signal_hz = 500e3;       ///< excitation frequency (paper: 500 kHz)
    int adc_decimation = 5;         ///< PCM rate 3.2 MHz

    // Measurement window.
    int window = 256;  ///< N samples per window
    int bin = 40;      ///< correlation bin k = N * signal_hz / pcm_rate

    // Datapath widths.
    int sample_bits = 12;   ///< PCM sample width
    int table_bits = 10;    ///< sin/cos table width (signed)
    int acc_bits = 30;      ///< MAC accumulator width
    int acc_shift = 12;     ///< accumulator truncation before CORDIC
    int cordic_bits = 18;   ///< CORDIC x/y lane width
    int cordic_stages = 12;
    int angle_bits = 16;    ///< angle in turns: 2^16 = full circle

    // Capacity computation.
    int ratio_frac_bits = 12;  ///< amplitude ratio Q12
    int ratio_bits = 14;       ///< ratio word (saturating)
    int cos_table_bits = 12;   ///< cos table width (signed, Q11)
    double c_ref_pf = 220.0;   ///< must match the front end's reference cap
    double c_empty_pf = 60.0;
    double c_full_pf = 480.0;

    // Filter / level.
    int ema_shift = 3;          ///< EMA time constant 2^3 samples
    int level_bits = 15;        ///< level output Q15 in [0, 1)
    int level_alarm_high = 29491;  ///< ~90 %
    int level_alarm_low = 3277;    ///< ~10 %

    // Measurement schedule (Fig. 4): one full cycle every 100 ms.
    double cycle_period_s = 0.100;

    /// Throws refpga::ContractViolation unless the parameters describe the
    /// pipeline they configure: a power-of-two window, a correlation bin on
    /// the excitation (bin * pcm_rate == window * signal_hz), a modulator
    /// clock that plays the sinus generator's kSinusLutSize-entry LUT at
    /// signal_hz, and table widths and CORDIC sizes within the table
    /// generators' bounds. Anything else used to run and read a wrong level
    /// (window 200, bin 41) or silently ignore a field (signal_hz,
    /// modulator_hz). MeasurementSystem calls it before building its tables.
    void validate() const;

    [[nodiscard]] double pcm_rate_hz() const { return modulator_hz / adc_decimation; }
    /// Capacity output scaling: pF in Q4.
    [[nodiscard]] int c_ref_q4() const { return static_cast<int>(c_ref_pf * 16.0); }
    [[nodiscard]] int c_empty_q4() const { return static_cast<int>(c_empty_pf * 16.0); }
    [[nodiscard]] int c_full_q4() const { return static_cast<int>(c_full_pf * 16.0); }
};

}  // namespace refpga::app
