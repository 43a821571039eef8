// Hardware implementations of the measurement pipeline, as netlist
// generators (the System Generator modules of §4.2, rebuilt as LUT/FF/MULT
// structures). Each generator emits into the builder's *current partition*,
// so the system can place each module in the static area or in a
// reconfigurable slot.
//
// Module protocol: streaming sample inputs with a `valid` clock enable and a
// `clear` pulse; post-processing datapaths are combinational from the
// accumulator registers, qualified by `done`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "refpga/app/params.hpp"
#include "refpga/netlist/builder.hpp"

namespace refpga::app {

/// Sinus generator (Fig. 3): 32-entry sine LUT + 5-bit address counter +
/// on-chip second-order delta-sigma DAC. `tick` is the 16 MHz clock enable
/// from the DCM model.
struct SinusGeneratorIo {
    netlist::Bus code8;     ///< 8-bit unsigned DAC code (external-DAC variant)
    netlist::NetId ds_bit;  ///< delta-sigma bitstream (internal-DAC variant)
};
[[nodiscard]] SinusGeneratorIo make_sinus_generator(netlist::Builder& builder,
                                                    netlist::NetId tick,
                                                    const AppParams& params);

/// Bit-exact C++ mirror of the generator's LUT and delta-sigma stage (for
/// tests and for driving the analog front end without netlist simulation).
///
/// The generator has no input, so its state (LUT address, s1, s2) is a pure
/// function of the tick count: it returns to reset after a fixed number of
/// ticks, 64 for the shipped table (two passes of the 32-entry LUT). The
/// constructor runs the integrator recurrence once, from reset until the
/// state returns there, and every tick after that is served from the
/// recorded period; a table whose state does not return to reset within
/// kMaxPeriod ticks is a contract failure. period() and phase() let a
/// periodic consumer (analog::FrontEnd::run_periodic_*) read the period in
/// place instead of copying the drive out tick by tick.
class SinusGenModel {
public:
    /// Bound on the period the constructor searches for.
    static constexpr std::size_t kMaxPeriod = std::size_t{1} << 16;

    explicit SinusGenModel(const AppParams& params);

    /// One 16 MHz tick: returns {code8, ds_bit}.
    struct Step {
        std::uint32_t code8 = 0;
        bool ds_bit = false;
    };
    Step step();

    /// Ticks until the state returns to reset.
    [[nodiscard]] std::size_t period() const { return bits_.size(); }
    /// Position of the next tick within the period.
    [[nodiscard]] std::size_t phase() const { return phase_; }
    /// One period from reset: the delta-sigma bit (0/1) of each tick.
    [[nodiscard]] std::span<const std::uint8_t> period_bits() const { return bits_; }
    /// One period from reset: the 8-bit DAC code of each tick.
    [[nodiscard]] std::span<const std::uint8_t> period_codes() const { return codes_; }
    /// Skips `n` ticks.
    void advance(std::size_t n) { phase_ = (phase_ + n % period()) % period(); }

    /// The next `n` delta-sigma bits (0/1), copied into `bits`.
    void run_block_bits(std::size_t n, std::uint8_t* bits);
    /// The next `n` 8-bit DAC codes, copied into `codes`.
    void run_block_codes(std::size_t n, std::uint8_t* codes);

private:
    void copy_period(std::span<const std::uint8_t> period, std::size_t n,
                     std::uint8_t* out);

    std::vector<std::uint8_t> bits_;
    std::vector<std::uint8_t> codes_;
    std::size_t phase_ = 0;
};

/// Amplitude & phase module (the largest reconfigurable module): dual-channel
/// I/Q correlator plus a channel-multiplexed CORDIC vectoring pipeline.
struct AmpPhaseIo {
    netlist::NetId done;    ///< window complete (N valid samples seen)
    netlist::Bus amp;       ///< 16-bit amplitude of the selected channel
    netlist::Bus phase;     ///< angle_bits phase of the selected channel
};
[[nodiscard]] AmpPhaseIo make_amp_phase(netlist::Builder& builder,
                                        const netlist::Bus& meas,
                                        const netlist::Bus& ref,
                                        netlist::NetId valid, netlist::NetId clear,
                                        netlist::NetId chan_sel,
                                        const AppParams& params);

/// Capacity module: C = C_ref * (A_m / A_r) * cos(phi_m - phi_r).
struct CapacityIo {
    netlist::Bus ratio_q12;  ///< ratio_bits-wide amplitude ratio
    netlist::Bus cap_pf_q4;  ///< 16-bit capacitance, pF Q4
};
[[nodiscard]] CapacityIo make_capacity(netlist::Builder& builder,
                                       const netlist::Bus& amp_m,
                                       const netlist::Bus& ph_m,
                                       const netlist::Bus& amp_r,
                                       const netlist::Bus& ph_r,
                                       const AppParams& params);

/// Filter & level module: median-3 + EMA + linearization + alarms.
struct FilterIo {
    netlist::Bus level_q15;     ///< 16-bit level (Q15)
    netlist::NetId alarm_high;
    netlist::NetId alarm_low;
    netlist::Bus ema;           ///< filter state (test observability)
};
[[nodiscard]] FilterIo make_filter(netlist::Builder& builder, const netlist::Bus& cap,
                                   netlist::NetId cap_valid, const AppParams& params);

/// ADC interface (static side): input registers + valid synchronizer for the
/// two PCM channels.
struct AdcInterfaceIo {
    netlist::Bus meas;
    netlist::Bus ref;
    netlist::NetId valid;
};
[[nodiscard]] AdcInterfaceIo make_adc_interface(netlist::Builder& builder,
                                                const netlist::Bus& meas_in,
                                                const netlist::Bus& ref_in,
                                                netlist::NetId valid_in,
                                                const AppParams& params);

}  // namespace refpga::app
