// SoC memory system: LMB block RAM, external SRAM over EMC, and OPB
// peripherals (UART, GPIO).
//
// The latency split is the heart of the paper's software baseline: code that
// fits local BRAM (LMB) executes with single-cycle fetches, while the >60 KB
// measurement algorithms spill to external SRAM whose multi-cycle accesses
// dominate the 7 ms software processing time.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "refpga/soc/assembler.hpp"

namespace refpga::soc {

/// Canonical memory map.
inline constexpr std::uint32_t kLmbBase = 0x0000'0000;
inline constexpr std::uint32_t kSramBase = 0x8000'0000;
inline constexpr std::uint32_t kOpbBase = 0xC000'0000;
inline constexpr std::uint32_t kUartTxAddr = kOpbBase + 0x0;
inline constexpr std::uint32_t kUartStatusAddr = kOpbBase + 0x4;
inline constexpr std::uint32_t kGpioAddr = kOpbBase + 0x10;

struct MemoryConfig {
    std::uint32_t lmb_bytes = 32 * 1024;    ///< internal BRAM (fast)
    std::uint32_t sram_bytes = 1024 * 1024; ///< external SRAM (slow)
    int lmb_latency = 1;                    ///< cycles per access
    int sram_latency = 5;                   ///< EMC wait states included
    int opb_latency = 4;                    ///< bus arbitration + peripheral
};

class MemorySystem {
public:
    explicit MemorySystem(MemoryConfig config = {});

    [[nodiscard]] const MemoryConfig& config() const { return config_; }

    /// Word access; addr must be 4-aligned and mapped. Returns the value and
    /// adds the region's latency to `cycles`.
    [[nodiscard]] std::uint32_t read_word(std::uint32_t addr, std::int64_t& cycles) {
        if (const std::uint32_t* word = ram_word(addr)) {
            cycles += ram_latency(addr);
            return *word;
        }
        return read_word_slow(addr, cycles);
    }
    void write_word(std::uint32_t addr, std::uint32_t value, std::int64_t& cycles) {
        if (std::uint32_t* word = ram_word(addr)) {
            cycles += ram_latency(addr);
            *word = value;
            if (watched(word)) ++code_epoch_;
            return;
        }
        write_word_slow(addr, value, cycles);
    }

    /// Latency-free accessors for loaders and tests.
    [[nodiscard]] std::uint32_t peek(std::uint32_t addr) const {
        if (const std::uint32_t* word = ram_word(addr)) return *word;
        std::int64_t dummy = 0;
        // The slow read mutates nothing; const_cast is contained here.
        return const_cast<MemorySystem*>(this)->read_word_slow(addr, dummy);
    }
    void poke(std::uint32_t addr, std::uint32_t value) {
        std::int64_t dummy = 0;
        write_word(addr, value, dummy);
    }

    /// Loads an assembled program at its linked addresses. `.space`
    /// reservations stay as they are (zero in fresh memory); the end of the
    /// image must be mapped.
    void load(const Program& program);

    /// Fetch latency for the region containing `addr` (models instruction
    /// fetch cost: 1 for LMB, the SRAM latency for external code).
    [[nodiscard]] int fetch_latency(std::uint32_t addr) const {
        if (addr >= kOpbBase) return config_.opb_latency;
        return ram_latency(addr);
    }

    /// The RAM word at `addr` when it is mapped and aligned, nullptr
    /// otherwise (the OPB window included): a fetch there cannot fault.
    [[nodiscard]] const std::uint32_t* code_word(std::uint32_t addr) const {
        return ram_word(addr);
    }

    /// Marks the RAM word at `addr` as translated code (see `Cpu`): from then
    /// on every store, poke or load into it bumps code_epoch(). `addr` must
    /// be a RAM word (code_word() non-null). Marks are never cleared.
    void watch_code(std::uint32_t addr);
    /// Count of writes into watched words so far.
    [[nodiscard]] std::uint64_t code_epoch() const { return code_epoch_; }

    /// Characters written to the UART TX register so far.
    [[nodiscard]] const std::string& uart_output() const { return uart_tx_; }
    [[nodiscard]] std::uint32_t gpio() const { return gpio_; }

private:
    /// The RAM word at `addr`; nullptr when `addr` is misaligned, past the
    /// end of its region or in the OPB window. The slow paths serve the
    /// peripherals and raise the contract violations.
    [[nodiscard]] const std::uint32_t* ram_word(std::uint32_t addr) const {
        if (addr % 4 != 0 || addr >= kOpbBase) return nullptr;
        const bool sram = addr >= kSramBase;
        const std::uint32_t off = (addr - (sram ? kSramBase : kLmbBase)) / 4;
        if (off >= (sram ? sram_words_ : lmb_words_)) return nullptr;
        return ram_.data() + (sram ? lmb_words_ : 0) + off;
    }
    [[nodiscard]] std::uint32_t* ram_word(std::uint32_t addr) {
        return const_cast<std::uint32_t*>(std::as_const(*this).ram_word(addr));
    }
    /// Latency of a RAM region (LMB below kSramBase, SRAM from there).
    [[nodiscard]] int ram_latency(std::uint32_t addr) const {
        return addr >= kSramBase ? config_.sram_latency : config_.lmb_latency;
    }
    /// True when `word` (a pointer into ram_) holds translated code.
    [[nodiscard]] bool watched(const std::uint32_t* word) const {
        const auto index = static_cast<std::size_t>(word - ram_.data());
        return ((watch_[index / 64] >> (index % 64)) & 1u) != 0;
    }

    std::uint32_t read_word_slow(std::uint32_t addr, std::int64_t& cycles);
    void write_word_slow(std::uint32_t addr, std::uint32_t value, std::int64_t& cycles);

    MemoryConfig config_;
    std::uint32_t lmb_words_;
    std::uint32_t sram_words_;
    std::vector<std::uint32_t> ram_;     ///< LMB words, then SRAM words
    std::vector<std::uint64_t> watch_;   ///< one bit per ram_ word: translated code
    std::uint64_t code_epoch_ = 0;
    std::string uart_tx_;
    std::uint32_t gpio_ = 0;
};

}  // namespace refpga::soc
