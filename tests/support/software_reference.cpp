#include "refpga/app/software_reference.hpp"

#include "refpga/common/contracts.hpp"
#include "refpga/soc/assembler.hpp"
#include "refpga/soc/cpu_reference.hpp"

namespace refpga::app {

SoftwareRun run_software_cycle_reference(std::span<const std::int32_t> meas,
                                         std::span<const std::int32_t> ref,
                                         const AppParams& params,
                                         const SoftwareConfig& config,
                                         const soc::MemoryConfig& mem_config,
                                         std::int64_t* retired) {
    REFPGA_EXPECTS(meas.size() == static_cast<std::size_t>(params.window));
    REFPGA_EXPECTS(ref.size() == meas.size());

    const SoftwareLayout layout;
    const soc::Program program =
        soc::assemble(measurement_source(params, config, layout));

    soc::MemorySystem memory(mem_config);
    memory.load(program);
    for (std::size_t i = 0; i < meas.size(); ++i) {
        memory.poke(layout.meas_buf + static_cast<std::uint32_t>(4 * i),
                    static_cast<std::uint32_t>(meas[i]));
        memory.poke(layout.ref_buf + static_cast<std::uint32_t>(4 * i),
                    static_cast<std::uint32_t>(ref[i]));
    }

    soc::CpuReference cpu(memory);
    cpu.reset(config.code_in_sram ? layout.code_base : 0);
    const soc::CpuState state = cpu.run(500'000'000);
    REFPGA_EXPECTS(state == soc::CpuState::Halted);
    if (retired != nullptr) *retired = cpu.retired();

    auto result_word = [&](SwResult r) {
        return memory.peek(layout.result_base +
                           static_cast<std::uint32_t>(4 * static_cast<int>(r)));
    };
    SoftwareRun run;
    run.amp_meas = result_word(SwResult::AmpMeas);
    run.phase_meas = result_word(SwResult::PhaseMeas);
    run.amp_ref = result_word(SwResult::AmpRef);
    run.phase_ref = result_word(SwResult::PhaseRef);
    run.ratio_q12 = result_word(SwResult::RatioQ12);
    run.cap_pf_q4 = result_word(SwResult::CapPfQ4);
    run.level_q15 = result_word(SwResult::LevelQ15);
    run.cycles = cpu.cycles();
    run.code_bytes = program.size_bytes() -
                     (config.code_in_sram ? layout.code_base : 0);
    return run;
}

}  // namespace refpga::app
