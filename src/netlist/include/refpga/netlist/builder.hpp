// Word-level netlist construction.
//
// Builder wraps a Netlist with bus-valued operators (add, mul, mux, compare,
// registers, counters, ROMs) so the application's hardware modules can be
// generated compactly while still elaborating down to LUT/FF/BRAM/MULT18
// primitives with realistic resource counts.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "refpga/netlist/netlist.hpp"

namespace refpga::netlist {

/// A little-endian bus of nets (bit 0 first).
using Bus = std::vector<NetId>;

class Builder {
public:
    /// All sequential cells created through this builder use `clock`.
    Builder(Netlist& nl, NetId clock);

    [[nodiscard]] Netlist& netlist() { return nl_; }
    [[nodiscard]] NetId clock() const { return clock_; }
    [[nodiscard]] NetId gnd() { return nl_.add_gnd(); }
    [[nodiscard]] NetId vcc() { return nl_.add_vcc(); }

    /// Hierarchical name scoping: names of cells created inside a scope are
    /// prefixed with "<scope>/"; scopes nest.
    void push_scope(const std::string& name);
    void pop_scope();

    // --- bit-level ----------------------------------------------------------

    NetId lut(std::uint16_t mask, std::initializer_list<NetId> inputs,
              const std::string& name = "lut");
    NetId not_(NetId a);
    NetId and_(NetId a, NetId b);
    NetId or_(NetId a, NetId b);
    NetId xor_(NetId a, NetId b);
    NetId xnor_(NetId a, NetId b);
    NetId mux(NetId sel, NetId when0, NetId when1);
    NetId ff(NetId d, NetId ce = NetId{}, const std::string& name = "ff");

    // --- word-level ---------------------------------------------------------

    /// Bus holding a compile-time constant (wired to GND/VCC).
    Bus constant(std::uint64_t value, int width);

    Bus not_bus(const Bus& a);
    Bus and_bus(const Bus& a, const Bus& b);
    Bus or_bus(const Bus& a, const Bus& b);
    Bus xor_bus(const Bus& a, const Bus& b);
    Bus mux_bus(NetId sel, const Bus& when0, const Bus& when1);

    /// Ripple-carry add; result has max(|a|,|b|) bits (carry-out dropped)
    /// unless `keep_carry`, which appends it.
    Bus add(const Bus& a, const Bus& b, bool keep_carry = false);
    Bus sub(const Bus& a, const Bus& b);  ///< a - b, two's complement
    Bus negate(const Bus& a);

    /// Selectable adder/subtractor: subtract ? a - b : a + b (one adder with
    /// XOR-conditioned operand and carry-in, as fabric add/sub units do).
    Bus addsub(const Bus& a, const Bus& b, NetId subtract);

    /// Increment-by-one (half-adder chain), same width as a.
    Bus increment(const Bus& a);

    NetId eq(const Bus& a, const Bus& b);
    NetId lt_unsigned(const Bus& a, const Bus& b);
    NetId lt_signed(const Bus& a, const Bus& b);

    /// Registers every bit of `d`; optional clock enable.
    Bus reg(const Bus& d, NetId ce = NetId{}, const std::string& name = "reg");

    /// Free-running (or ce-gated) up counter of `width` bits.
    Bus counter(int width, NetId ce = NetId{}, const std::string& name = "cnt");

    /// State register with feedback: creates `width` FFs, calls `next(q)` to
    /// build the next-state logic, and closes the loop. Returns q.
    Bus feedback_reg(int width, const std::function<Bus(const Bus&)>& next,
                     NetId ce = NetId{}, const std::string& name = "state");

    /// Combinational LUT ROM: contents[i] is the word at address i. Built
    /// from LUT4 trees (one tree per output bit), mirroring distributed RAM.
    Bus rom_lut(const Bus& addr, const std::vector<std::uint32_t>& contents,
                int data_bits, const std::string& name = "rom");

    /// Synchronous BRAM ROM (read-only port).
    Bus rom_bram(const Bus& addr, const std::vector<std::uint32_t>& contents,
                 int data_bits, const std::string& name = "bram_rom");

    /// Signed multiply via a MULT18 block (operand widths <= 18); returns
    /// `out_bits` product bits starting at `shift` (fixed-point rescaling).
    Bus mul_mult18(const Bus& a, const Bus& b, int out_bits, int shift = 0,
                   const std::string& name = "mul");

    // --- wiring helpers (no hardware cost) -----------------------------------

    static Bus slice(const Bus& a, int lsb, int width);
    static Bus concat(const Bus& low, const Bus& high);
    Bus zero_extend(const Bus& a, int width);
    Bus sign_extend(const Bus& a, int width);

private:
    /// "<scopes>/<name><sep><n>", composed in a buffer the builder reuses;
    /// valid until the next call.
    [[nodiscard]] std::string_view scoped(std::string_view name, std::string_view sep,
                                          std::uint64_t n);
    NetId rom_bit(const Bus& addr, const std::vector<bool>& column, const std::string& name);

    Netlist& nl_;
    NetId clock_;
    std::string prefix_;               ///< every open scope, each followed by '/'
    std::vector<std::size_t> scopes_;  ///< prefix_ size before each open scope
    std::string name_;                 ///< scoped()'s buffer
    std::uint64_t unique_ = 0;
};

}  // namespace refpga::netlist
