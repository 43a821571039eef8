// Caller-owned buffers for the block-streaming front end.
//
// The 16 MHz measurement loop advances millions of modulator ticks per
// simulated second; a SampleBlock lets the FrontEnd block entries write whole
// batches of PCM pairs into preallocated storage instead of returning one
// std::optional per tick, and one block can be reused across windows and
// cycles without reallocating (app::MeasurementSystem keeps one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace refpga::analog {

/// Reusable streaming buffers: `meas`/`ref` hold the decimated PCM output
/// (appended to by FrontEnd::run_block_* and run_periodic_*). Plain vectors
/// so callers keep full ownership of capacity and lifetime.
struct SampleBlock {
    std::vector<std::int32_t> meas;
    std::vector<std::int32_t> ref;

    [[nodiscard]] std::size_t pcm_size() const { return meas.size(); }

    void clear_pcm() {
        meas.clear();
        ref.clear();
    }

    void reserve_pcm(std::size_t pairs) {
        meas.reserve(pairs);
        ref.reserve(pairs);
    }
};

}  // namespace refpga::analog
