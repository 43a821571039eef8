#include "refpga/soc/memory.hpp"

#include "refpga/common/contracts.hpp"

namespace refpga::soc {

MemorySystem::MemorySystem(MemoryConfig config)
    : config_(config),
      lmb_(config.lmb_bytes / 4, 0),
      sram_(config.sram_bytes / 4, 0) {}

std::uint32_t MemorySystem::read_word_slow(std::uint32_t addr, std::int64_t& cycles) {
    REFPGA_EXPECTS(addr % 4 == 0);
    if (addr >= kOpbBase) {
        cycles += config_.opb_latency;
        if (addr == kUartStatusAddr) return 1;  // TX always ready
        if (addr == kGpioAddr) return gpio_;
        return 0;
    }
    if (addr >= kSramBase) {
        cycles += config_.sram_latency;
        const std::uint32_t off = (addr - kSramBase) / 4;
        REFPGA_EXPECTS(off < sram_.size());
        return sram_[off];
    }
    cycles += config_.lmb_latency;
    const std::uint32_t off = addr / 4;
    REFPGA_EXPECTS(off < lmb_.size());
    return lmb_[off];
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
    if (addr >= kSramBase) {
        cycles += config_.sram_latency;
        const std::uint32_t off = (addr - kSramBase) / 4;
        REFPGA_EXPECTS(off < sram_.size());
        sram_[off] = value;
        return;
    }
    cycles += config_.lmb_latency;
    const std::uint32_t off = addr / 4;
    REFPGA_EXPECTS(off < lmb_.size());
    lmb_[off] = value;
}

void MemorySystem::load(const Program& program) {
    for (const auto& [addr, word] : program.words) poke(addr, word);
    if (program.size_bytes() > 0) (void)peek(program.size_bytes() - 4);
}

}  // namespace refpga::soc
