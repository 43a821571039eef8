#include "refpga/analog/tank.hpp"

#include <algorithm>
#include <cmath>

#include "refpga/common/contracts.hpp"

namespace refpga::analog {

TankCircuit::TankCircuit(TankParams params, double sample_hz, std::uint64_t noise_seed)
    : params_(params),
      inv_dt_(sample_hz),
      g_leak_(1.0 / params.r_leak_ohm),
      rng_(noise_seed) {
    REFPGA_EXPECTS(sample_hz > 0.0);
    REFPGA_EXPECTS(params_.c_full_pf > params_.c_empty_pf);
}

void TankCircuit::set_level(double level) {
    REFPGA_EXPECTS(level >= 0.0 && level <= 1.0);
    level_ = level;
}

double TankCircuit::probe_capacitance_pf() const {
    return params_.c_empty_pf + level_ * (params_.c_full_pf - params_.c_empty_pf);
}

TankCircuit::Currents TankCircuit::step(double drive_v) {
    Currents out;
    if (!primed_) {
        prev_drive_ = drive_v;
        primed_ = true;
        return out;
    }
    const double dv_dt = (drive_v - prev_drive_) * inv_dt_;
    prev_drive_ = drive_v;

    // Branch currents: i = C dv/dt (+ v/R for the leaky probe).
    const double c_probe = probe_capacitance_pf() * 1e-12;
    const double i_meas = c_probe * dv_dt + drive_v * g_leak_;
    const double i_ref = params_.c_ref_pf * 1e-12 * dv_dt;

    out.meas_v = i_meas * params_.tia_gain_v_per_a;
    out.ref_v = i_ref * params_.tia_gain_v_per_a;
    if (params_.noise_rms_v > 0.0) {
        // Draw order (meas, then ref) is part of the front end's determinism
        // contract. At zero RMS the noise term is a signed zero, which cannot
        // change any downstream sample, so the draws are skipped entirely
        // rather than spending two ziggurat draws on nothing.
        out.meas_v += params_.noise_rms_v * rng_.next_gaussian();
        out.ref_v += params_.noise_rms_v * rng_.next_gaussian();
    }
    return out;
}

std::complex<double> TankCircuit::meas_response(double freq_hz) const {
    const double w = 2.0 * M_PI * freq_hz;
    const std::complex<double> admittance(1.0 / params_.r_leak_ohm,
                                          w * probe_capacitance_pf() * 1e-12);
    return admittance * params_.tia_gain_v_per_a;
}

std::complex<double> TankCircuit::ref_response(double freq_hz) const {
    const double w = 2.0 * M_PI * freq_hz;
    return std::complex<double>(0.0, w * params_.c_ref_pf * 1e-12) *
           params_.tia_gain_v_per_a;
}

double level_from_capacitance(const TankParams& params, double c_pf) {
    const double level =
        (c_pf - params.c_empty_pf) / (params.c_full_pf - params.c_empty_pf);
    return std::clamp(level, 0.0, 1.0);
}

}  // namespace refpga::analog
