// Capacitive tank model (the physical plant of the measurement system).
//
// The probe capacitance grows linearly with fill level; a leakage resistance
// sits in parallel. The excitation sine is applied to the probe and to a
// known reference capacitor; transimpedance amplifiers convert both branch
// currents to voltages. From the two channels' amplitude and phase the
// processing pipeline recovers the capacitance and thus the level.
#pragma once

#include <complex>

#include "refpga/common/rng.hpp"

namespace refpga::analog {

class FrontEnd;  // block-streaming kernel (frontend.cpp) reads state directly

struct TankParams {
    double c_empty_pf = 60.0;   ///< probe capacitance, empty tank
    double c_full_pf = 480.0;   ///< probe capacitance, full tank
    double r_leak_ohm = 2.0e6;  ///< parallel leakage (condensation, deposits)
    double c_ref_pf = 220.0;    ///< reference branch capacitor
    double tia_gain_v_per_a = 600.0;  ///< transimpedance amplifier gain
    double noise_rms_v = 1e-3;  ///< additive output noise per channel
};

class TankCircuit {
public:
    TankCircuit(TankParams params, double sample_hz, std::uint64_t noise_seed = 7);

    /// Ground-truth fill level in [0, 1].
    void set_level(double level);
    [[nodiscard]] double level() const { return level_; }

    [[nodiscard]] const TankParams& params() const { return params_; }
    [[nodiscard]] double probe_capacitance_pf() const;

    /// Advances one sample: `drive_v` is the excitation voltage. Returns the
    /// TIA output voltages of the measurement and reference branches.
    struct Currents {
        double meas_v = 0.0;
        double ref_v = 0.0;
    };
    Currents step(double drive_v);

    /// Closed-form complex response at `freq_hz` for unit drive (used by
    /// golden-model tests): TIA volts per drive volt for each branch.
    [[nodiscard]] std::complex<double> meas_response(double freq_hz) const;
    [[nodiscard]] std::complex<double> ref_response(double freq_hz) const;

private:
    friend class FrontEnd;
    TankParams params_;
    // Precomputed reciprocals: the differentiator and the leak current sit on
    // the 16 MHz sample path, and a divide there costs more than the rest of
    // the tank arithmetic combined. Both step() and the block kernel
    // multiply by these same values, keeping the two bit-identical.
    double inv_dt_;
    double g_leak_;
    double level_ = 0.0;
    double prev_drive_ = 0.0;
    bool primed_ = false;
    Rng rng_;
};

/// Inverse of the level->capacitance map.
[[nodiscard]] double level_from_capacitance(const TankParams& params, double c_pf);

}  // namespace refpga::analog
