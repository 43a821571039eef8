#include "refpga/analog/frontend_reference.hpp"

namespace refpga::analog {

FrontEndReference::FrontEndReference(const FrontEndConfig& config,
                                     std::uint64_t noise_seed)
    : tank_(config.tank, config.modulator_hz, noise_seed),
      recon_(config.recon_cutoff_hz, config.modulator_hz),
      alias_meas_(config.antialias_cutoff_hz, config.modulator_hz),
      alias_ref_(config.antialias_cutoff_hz, config.modulator_hz),
      adc_meas_(config.adc_decimation, config.adc_bits),
      adc_ref_(config.adc_decimation, config.adc_bits) {}

std::optional<FrontEndReference::PcmPair> FrontEndReference::step_ds_bit(bool bit) {
    const double drive = recon_.step(bit ? 1.0 : -1.0);
    const TankCircuit::Currents branch = tank_.step(drive);
    const double meas = alias_meas_.step(branch.meas_v);
    const double ref = alias_ref_.step(branch.ref_v);

    const auto pcm_meas = adc_meas_.step(meas);
    const auto pcm_ref = adc_ref_.step(ref);
    // Both ADCs share the decimation phase, so they fire together.
    if (pcm_meas && pcm_ref) return PcmPair{*pcm_meas, *pcm_ref};
    return std::nullopt;
}

}  // namespace refpga::analog
