#include "refpga/soc/memory.hpp"

#include "refpga/common/contracts.hpp"

namespace refpga::soc {

MemorySystem::MemorySystem(MemoryConfig config)
    : config_(config),
      lmb_words_(config.lmb_bytes / 4),
      sram_words_(config.sram_bytes / 4),
      ram_(std::size_t{lmb_words_} + sram_words_, 0),
      watch_((ram_.size() + 63) / 64, 0) {}

std::uint32_t MemorySystem::read_word_slow(std::uint32_t addr, std::int64_t& cycles) {
    REFPGA_EXPECTS(addr % 4 == 0);
    if (addr >= kOpbBase) {
        cycles += config_.opb_latency;
        if (addr == kUartStatusAddr) return 1;  // TX always ready
        if (addr == kGpioAddr) return gpio_;
        return 0;
    }
    cycles += ram_latency(addr);
    const std::uint32_t* word = ram_word(addr);
    REFPGA_EXPECTS(word != nullptr);
    return *word;
}

void MemorySystem::write_word_slow(std::uint32_t addr, std::uint32_t value,
                                   std::int64_t& cycles) {
    REFPGA_EXPECTS(addr % 4 == 0);
    if (addr >= kOpbBase) {
        cycles += config_.opb_latency;
        if (addr == kUartTxAddr) uart_tx_ += static_cast<char>(value & 0xFF);
        if (addr == kGpioAddr) gpio_ = value;
        return;
    }
    cycles += ram_latency(addr);
    std::uint32_t* word = ram_word(addr);
    REFPGA_EXPECTS(word != nullptr);
    *word = value;
    if (watched(word)) ++code_epoch_;
}

void MemorySystem::watch_code(std::uint32_t addr) {
    const std::uint32_t* word = ram_word(addr);
    REFPGA_EXPECTS(word != nullptr);
    const auto index = static_cast<std::size_t>(word - ram_.data());
    watch_[index / 64] |= std::uint64_t{1} << (index % 64);
}

void MemorySystem::load(const Program& program) {
    for (const auto& [addr, word] : program.words) poke(addr, word);
    if (program.size_bytes() > 0) (void)peek(program.size_bytes() - 4);
}

}  // namespace refpga::soc
