#include "refpga/app/software.hpp"

#include <sstream>

#include "refpga/app/tables.hpp"
#include "refpga/common/contracts.hpp"
#include "refpga/soc/assembler.hpp"

namespace refpga::app {

namespace {

void emit_words(std::ostringstream& os, const std::vector<std::int32_t>& values) {
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i % 8 == 0) os << "    .word ";
        os << values[i];
        os << ((i % 8 == 7 || i + 1 == values.size()) ? "\n" : ", ");
    }
}

}  // namespace

std::string measurement_source(const AppParams& params, const SoftwareConfig& config,
                               const SoftwareLayout& layout) {
    REFPGA_EXPECTS(params.window == 256 && params.angle_bits == 16);
    std::ostringstream os;
    const std::int32_t inv_k = cordic_inv_gain_q15(params.cordic_stages);
    const std::int32_t slope = level_slope_q10(params);

    os << "; capacity-measurement firmware (generated)\n";
    os << "; register use: r1 meas, r2 ref, r3 sin, r4 cos, r5/r6 loop,\n";
    os << ";   r7 sample, r8 table, r20-r23 I/Q accs, r24 results, r15 link\n";
    if (config.code_in_sram)
        os << "    .org " << layout.code_base << "\n";

    // ----- main ------------------------------------------------------------
    os << "main:\n";
    auto load_addr = [&](const char* reg, const std::string& what) {
        os << "    lui  " << reg << ", hi(" << what << ")\n";
        os << "    ori  " << reg << ", " << reg << ", lo(" << what << ")\n";
    };
    // A parameter-derived constant: one addi when it fits the signed 16-bit
    // field, lui/ori otherwise.
    auto load_const = [&](const char* reg, std::int64_t value) {
        if (value >= -32768 && value <= 32767)
            os << "    addi " << reg << ", r0, " << value << "\n";
        else
            load_addr(reg, std::to_string(value));
    };
    load_addr("r1", std::to_string(layout.meas_buf));
    load_addr("r2", std::to_string(layout.ref_buf));
    load_addr("r3", "sin_tab");
    load_addr("r4", "cos_tab");
    load_addr("r24", std::to_string(layout.result_base));
    os << "    addi r5, r0, 0\n    addi r6, r0, 0\n";
    os << "    addi r20, r0, 0\n    addi r21, r0, 0\n";
    os << "    addi r22, r0, 0\n    addi r23, r0, 0\n";

    // MAC loop: 4 products per sample (meas/ref x sin/cos).
    os << "mac_loop:\n";
    os << "    slli r9, r6, 2\n";
    auto product = [&](const char* sample_ptr, const char* table_ptr,
                       const char* acc) {
        os << "    add  r13, " << sample_ptr << ", r9\n";
        os << "    lw   r7, r13, 0\n";
        os << "    slli r14, r5, 2\n";
        os << "    add  r13, " << table_ptr << ", r14\n";
        os << "    lw   r8, r13, 0\n";
        os << "    add  r10, r7, r0\n";
        os << "    add  r11, r8, r0\n";
        os << "    brl  mul\n";
        os << "    add  " << acc << ", " << acc << ", r12\n";
    };
    product("r1", "r3", "r21");  // Q_m += meas * sin
    product("r1", "r4", "r20");  // I_m += meas * cos
    product("r2", "r3", "r23");  // Q_r += ref * sin
    product("r2", "r4", "r22");  // I_r += ref * cos
    os << "    addi r5, r5, " << params.bin << "\n";
    os << "    andi r5, r5, " << (params.window - 1) << "\n";
    os << "    addi r6, r6, 1\n";
    os << "    addi r14, r0, " << params.window << "\n";
    os << "    bne  r6, r14, mac_loop\n";

    // Truncate accumulators to the CORDIC input scale.
    for (const char* acc : {"r20", "r21", "r22", "r23"})
        os << "    srai " << acc << ", " << acc << ", " << params.acc_shift << "\n";

    // Measurement channel: CORDIC + gain correction.
    auto channel = [&](const char* acc_i, const char* acc_q, int amp_word,
                       int phase_word) {
        os << "    add  r25, " << acc_i << ", r0\n";
        os << "    add  r26, " << acc_q << ", r0\n";
        os << "    brl  cordic\n";
        if (config.hw_multiplier) {
            load_const("r11", inv_k);
            os << "    mul  r12, r27, r11\n";
            os << "    mulh r13, r27, r11\n";
            os << "    srli r12, r12, 15\n";
            os << "    slli r13, r13, 17\n";
            os << "    or   r12, r12, r13\n";
        } else {
            // Soft-multiply route: pre-shift to keep the product in 31 bits.
            os << "    srai r10, r27, 2\n";
            load_const("r11", inv_k);
            os << "    brl  mul\n";
            os << "    srai r12, r12, 13\n";
        }
        os << "    andi r12, r12, 65535\n";
        os << "    sw   r12, r24, " << amp_word * 4 << "\n";
        os << "    sw   r28, r24, " << phase_word * 4 << "\n";
    };
    channel("r20", "r21", static_cast<int>(SwResult::AmpMeas),
            static_cast<int>(SwResult::PhaseMeas));
    channel("r22", "r23", static_cast<int>(SwResult::AmpRef),
            static_cast<int>(SwResult::PhaseRef));

    // Ratio = (amp_m << 12) / amp_r (restoring division, saturated Q12).
    os << "    lw   r10, r24, " << static_cast<int>(SwResult::AmpMeas) * 4 << "\n";
    os << "    lw   r11, r24, " << static_cast<int>(SwResult::AmpRef) * 4 << "\n";
    os << "    brl  divide\n";
    os << "    sw   r12, r24, " << static_cast<int>(SwResult::RatioQ12) * 4 << "\n";
    os << "    add  r20, r12, r0\n";  // keep ratio

    // cos(delta phi) lookup.
    os << "    lw   r13, r24, " << static_cast<int>(SwResult::PhaseMeas) * 4 << "\n";
    os << "    lw   r14, r24, " << static_cast<int>(SwResult::PhaseRef) * 4 << "\n";
    os << "    sub  r13, r13, r14\n";
    os << "    andi r13, r13, 65535\n";
    os << "    srli r13, r13, 8\n";
    os << "    slli r13, r13, 2\n";
    load_addr("r14", "cosq_tab");
    os << "    add  r13, r14, r13\n";
    os << "    lw   r8, r13, 0\n";

    // c_rel = clamp0((ratio * cos) >> 11); cap = (c_rel * c_ref_q4) >> 12.
    os << "    add  r10, r20, r0\n";
    os << "    add  r11, r8, r0\n";
    os << "    brl  mul\n";
    os << "    srai r12, r12, 11\n";
    os << "    bge  r12, r0, crel_ok\n";
    os << "    addi r12, r0, 0\n";
    os << "crel_ok:\n";
    os << "    add  r10, r12, r0\n";
    load_const("r11", params.c_ref_q4());
    os << "    brl  mul\n";
    os << "    srli r12, r12, 12\n";
    os << "    sw   r12, r24, " << static_cast<int>(SwResult::CapPfQ4) * 4 << "\n";
    os << "    add  r7, r12, r0\n";  // cap for the filter

    // Filter: 64 steps of median-3 + EMA (converges to steady state within
    // 0.1 %), then linearization — register allocation reuses MAC registers.
    os << "    addi r5, r0, 0\n    addi r6, r0, 0\n    addi r9, r0, 0\n";
    os << "    addi r18, r0, 0\n    addi r19, r0, 0\n";
    os << "filt_loop:\n";
    os << "    add  r9, r6, r0\n";   // h2 = h1
    os << "    add  r6, r5, r0\n";   // h1 = h0
    os << "    add  r5, r7, r0\n";   // h0 = cap
    os << "    add  r13, r6, r0\n";  // r13 = min(h0, h1)
    os << "    bgeu r5, r6, fmin1\n";
    os << "    add  r13, r5, r0\n";
    os << "fmin1:\n";
    os << "    add  r14, r5, r0\n";  // r14 = max(h0, h1)
    os << "    bgeu r5, r6, fmax1\n";
    os << "    add  r14, r6, r0\n";
    os << "fmax1:\n";
    os << "    add  r16, r9, r0\n";  // r16 = min(r14, h2)
    os << "    bgeu r14, r9, fmin2\n";
    os << "    add  r16, r14, r0\n";
    os << "fmin2:\n";
    os << "    add  r17, r16, r0\n";  // median = max(r13, r16)
    os << "    bgeu r16, r13, fmax2\n";
    os << "    add  r17, r13, r0\n";
    os << "fmax2:\n";
    os << "    sub  r13, r17, r18\n";
    os << "    srai r13, r13, " << params.ema_shift << "\n";
    os << "    add  r18, r18, r13\n";
    os << "    andi r18, r18, 65535\n";
    os << "    addi r19, r19, 1\n";
    os << "    addi r13, r0, 64\n";
    os << "    bne  r19, r13, filt_loop\n";

    load_const("r13", params.c_empty_q4());
    os << "    sub  r13, r18, r13\n";
    os << "    bge  r13, r0, delta_ok\n";
    os << "    addi r13, r0, 0\n";
    os << "delta_ok:\n";
    os << "    add  r10, r13, r0\n";
    load_const("r11", slope);
    os << "    brl  mul\n";
    os << "    srli r12, r12, 10\n";
    os << "    addi r13, r0, 32767\n";
    os << "    bltu r12, r13, level_ok\n";
    os << "    add  r12, r13, r0\n";
    os << "level_ok:\n";
    os << "    sw   r12, r24, " << static_cast<int>(SwResult::LevelQ15) * 4 << "\n";
    os << "    halt\n";

    // ----- mul: r12 = r10 * r11 (signed) ------------------------------------
    if (config.hw_multiplier) {
        os << "mul:\n    mul  r12, r10, r11\n    jr   r15\n";
    } else {
        os << "mul:\n";
        os << "    addi r12, r0, 0\n";
        os << "    addi r14, r0, 0\n";
        os << "    bge  r11, r0, mul_abs\n";
        os << "    sub  r11, r0, r11\n";
        os << "    addi r14, r0, 1\n";
        os << "mul_abs:\n";
        os << "    beq  r11, r0, mul_fix\n";
        os << "mul_loop:\n";
        os << "    andi r13, r11, 1\n";
        os << "    beq  r13, r0, mul_skip\n";
        os << "    add  r12, r12, r10\n";
        os << "mul_skip:\n";
        os << "    slli r10, r10, 1\n";
        os << "    srli r11, r11, 1\n";
        os << "    bne  r11, r0, mul_loop\n";
        os << "mul_fix:\n";
        os << "    beq  r14, r0, mul_ret\n";
        os << "    sub  r12, r0, r12\n";
        os << "mul_ret:\n";
        os << "    jr   r15\n";
    }

    // ----- cordic: (r25, r26) -> r27 magnitude, r28 angle --------------------
    os << "cordic:\n";
    load_addr("r16", "atan_tab");
    os << "    addi r17, r0, 0\n";
    os << "    addi r28, r0, 0\n";
    os << "    bge  r25, r0, cordic_loop\n";
    os << "    sub  r25, r0, r25\n";
    os << "    sub  r26, r0, r26\n";
    os << "    addi r28, r0, -32768\n";  // half a turn, masked to 16 bits below
    os << "cordic_loop:\n";
    os << "    sra  r18, r25, r17\n";
    os << "    sra  r19, r26, r17\n";
    os << "    lw   r13, r16, 0\n";
    os << "    bge  r26, r0, cordic_pos\n";
    os << "    sub  r25, r25, r19\n";
    os << "    add  r26, r26, r18\n";
    os << "    sub  r28, r28, r13\n";
    os << "    br   cordic_next\n";
    os << "cordic_pos:\n";
    os << "    add  r25, r25, r19\n";
    os << "    sub  r26, r26, r18\n";
    os << "    add  r28, r28, r13\n";
    os << "cordic_next:\n";
    os << "    addi r16, r16, 4\n";
    os << "    addi r17, r17, 1\n";
    os << "    addi r14, r0, " << params.cordic_stages << "\n";
    os << "    bne  r17, r14, cordic_loop\n";
    os << "    andi r28, r28, 65535\n";
    os << "    add  r27, r25, r0\n";
    os << "    jr   r15\n";

    // ----- divide: r12 = sat14((r10 << 12) / r11) ----------------------------
    os << "divide:\n";
    os << "    bne  r11, r0, div_go\n";
    load_const("r12", (1 << params.ratio_bits) - 1);
    os << "    jr   r15\n";
    os << "div_go:\n";
    os << "    slli r13, r10, " << params.ratio_frac_bits << "\n";  // dividend
    os << "    addi r12, r0, 0\n";
    os << "    addi r16, r0, 0\n";   // remainder
    os << "    addi r17, r0, " << (16 + params.ratio_frac_bits - 1) << "\n";
    os << "div_loop:\n";
    os << "    slli r16, r16, 1\n";
    os << "    srl  r14, r13, r17\n";
    os << "    andi r14, r14, 1\n";
    os << "    or   r16, r16, r14\n";
    os << "    slli r12, r12, 1\n";
    os << "    bltu r16, r11, div_skip\n";
    os << "    sub  r16, r16, r11\n";
    os << "    ori  r12, r12, 1\n";
    os << "div_skip:\n";
    os << "    addi r17, r17, -1\n";
    os << "    bge  r17, r0, div_loop\n";
    os << "    srli r14, r12, " << params.ratio_bits << "\n";
    os << "    beq  r14, r0, div_ret\n";
    load_const("r12", (1 << params.ratio_bits) - 1);
    os << "div_ret:\n";
    os << "    jr   r15\n";

    // ----- tables ------------------------------------------------------------
    os << "sin_tab:\n";
    emit_words(os, sine_table(params.window, params.table_bits));
    os << "cos_tab:\n";
    emit_words(os, cosine_table(params.window, params.table_bits));
    os << "cosq_tab:\n";
    emit_words(os, cosine_table(256, params.cos_table_bits));
    os << "atan_tab:\n";
    emit_words(os, cordic_atan_table(params.cordic_stages, params.angle_bits));

    // Firmware bulk: drivers, fieldbus stack, calibration and service code of
    // the original product, represented as reserved image space.
    if (config.code_in_sram && config.padding_bytes > 0)
        os << "firmware_bulk:\n    .space " << (config.padding_bytes & ~3u) << "\n";

    return os.str();
}

SoftCore::SoftCore(const AppParams& params, const SoftwareConfig& config,
                   const soc::MemoryConfig& mem_config)
    : window_(static_cast<std::size_t>(params.window)),
      memory_(mem_config),
      cpu_(memory_),
      entry_(config.code_in_sram ? layout_.code_base : 0) {
    const soc::Program program =
        soc::assemble(measurement_source(params, config, layout_));
    // Every window rewrites the sample buffers and the firmware the result
    // block above them: an image reaching them would be corrupted.
    REFPGA_EXPECTS(program.size_bytes() <= layout_.meas_buf);
    memory_.load(program);
    code_bytes_ = program.size_bytes() - entry_;
}

SoftwareRun SoftCore::run(std::span<const std::int32_t> meas,
                          std::span<const std::int32_t> ref) {
    REFPGA_EXPECTS(meas.size() == window_);
    REFPGA_EXPECTS(ref.size() == meas.size());

    for (std::size_t i = 0; i < meas.size(); ++i) {
        memory_.poke(layout_.meas_buf + static_cast<std::uint32_t>(4 * i),
                     static_cast<std::uint32_t>(meas[i]));
        memory_.poke(layout_.ref_buf + static_cast<std::uint32_t>(4 * i),
                     static_cast<std::uint32_t>(ref[i]));
    }

    cpu_.reset(entry_);
    const soc::CpuState state = cpu_.run(500'000'000);
    REFPGA_EXPECTS(state == soc::CpuState::Halted);

    auto result_word = [&](SwResult r) {
        return memory_.peek(layout_.result_base +
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
    run.cycles = cpu_.cycles();
    run.code_bytes = code_bytes_;
    return run;
}

}  // namespace refpga::app
