#include "refpga/netlist/builder.hpp"

#include <algorithm>
#include <charconv>

namespace refpga::netlist {

namespace {
// Truth-table masks, input 0 = LSB of the index.
constexpr std::uint16_t kMaskNot = 0x1;
constexpr std::uint16_t kMaskAnd2 = 0x8;
constexpr std::uint16_t kMaskOr2 = 0xE;
constexpr std::uint16_t kMaskXor2 = 0x6;
constexpr std::uint16_t kMaskXnor2 = 0x9;
constexpr std::uint16_t kMaskMux = 0xCA;    ///< (a, b, sel): sel ? b : a
constexpr std::uint16_t kMaskSum3 = 0x96;   ///< parity(a, b, cin)
constexpr std::uint16_t kMaskCarry3 = 0xE8; ///< majority(a, b, cin)
constexpr std::uint16_t kMaskLt = 0xD4;     ///< (a, b, lt_prev): a<b | (a==b & lt_prev)

/// op(a[i], b[i]) for every bit of two equal-width buses, LSB first.
template <typename Op>
Bus zip(const Bus& a, const Bus& b, Op op) {
    REFPGA_EXPECTS(a.size() == b.size());
    Bus out;
    out.reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out.push_back(op(a[i], b[i]));
    return out;
}
}  // namespace

Builder::Builder(Netlist& nl, NetId clock) : nl_(nl), clock_(clock) {
    REFPGA_EXPECTS(clock.valid());
}

void Builder::push_scope(const std::string& name) {
    scopes_.push_back(prefix_.size());
    prefix_ += name;
    prefix_ += '/';
}

void Builder::pop_scope() {
    REFPGA_EXPECTS(!scopes_.empty());
    prefix_.resize(scopes_.back());
    scopes_.pop_back();
}

std::string_view Builder::scoped(std::string_view name, std::string_view sep,
                                 std::uint64_t n) {
    char digits[20];
    const auto end = std::to_chars(digits, digits + sizeof digits, n).ptr;
    name_.assign(prefix_).append(name).append(sep).append(digits, end);
    return name_;
}

NetId Builder::lut(std::uint16_t mask, std::initializer_list<NetId> inputs,
                   const std::string& name) {
    return nl_.add_lut(mask, std::span(inputs.begin(), inputs.size()),
                       scoped(name, "_", unique_++));
}

NetId Builder::not_(NetId a) { return lut(kMaskNot, {a}, "not"); }
NetId Builder::and_(NetId a, NetId b) { return lut(kMaskAnd2, {a, b}, "and"); }
NetId Builder::or_(NetId a, NetId b) { return lut(kMaskOr2, {a, b}, "or"); }
NetId Builder::xor_(NetId a, NetId b) { return lut(kMaskXor2, {a, b}, "xor"); }
NetId Builder::xnor_(NetId a, NetId b) { return lut(kMaskXnor2, {a, b}, "xnor"); }

NetId Builder::mux(NetId sel, NetId when0, NetId when1) {
    return lut(kMaskMux, {when0, when1, sel}, "mux");
}

NetId Builder::ff(NetId d, NetId ce, const std::string& name) {
    return nl_.add_ff(d, clock_, ce, scoped(name, "_", unique_++));
}

Bus Builder::constant(std::uint64_t value, int width) {
    REFPGA_EXPECTS(width >= 1 && width <= 64);
    Bus out;
    out.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i)
        out.push_back(((value >> i) & 1) != 0 ? vcc() : gnd());
    return out;
}

Bus Builder::not_bus(const Bus& a) {
    Bus out;
    out.reserve(a.size());
    for (const NetId n : a) out.push_back(not_(n));
    return out;
}

Bus Builder::and_bus(const Bus& a, const Bus& b) {
    return zip(a, b, [this](NetId x, NetId y) { return and_(x, y); });
}

Bus Builder::or_bus(const Bus& a, const Bus& b) {
    return zip(a, b, [this](NetId x, NetId y) { return or_(x, y); });
}

Bus Builder::xor_bus(const Bus& a, const Bus& b) {
    return zip(a, b, [this](NetId x, NetId y) { return xor_(x, y); });
}

Bus Builder::mux_bus(NetId sel, const Bus& when0, const Bus& when1) {
    return zip(when0, when1, [&](NetId x, NetId y) { return mux(sel, x, y); });
}

Bus Builder::add(const Bus& a, const Bus& b, bool keep_carry) {
    const int width = static_cast<int>(std::max(a.size(), b.size()));
    const Bus ax = zero_extend(a, width);
    const Bus bx = zero_extend(b, width);
    Bus out;
    out.reserve(static_cast<std::size_t>(width) + 1);
    NetId carry = gnd();
    for (int i = 0; i < width; ++i) {
        out.push_back(lut(kMaskSum3, {ax[i], bx[i], carry}, "sum"));
        if (i + 1 < width || keep_carry)
            carry = lut(kMaskCarry3, {ax[i], bx[i], carry}, "carry");
    }
    if (keep_carry) out.push_back(carry);
    return out;
}

Bus Builder::negate(const Bus& a) { return increment(not_bus(a)); }

Bus Builder::sub(const Bus& a, const Bus& b) {
    REFPGA_EXPECTS(a.size() == b.size());
    // a + ~b + 1 via an adder with carry-in forced to 1.
    const Bus nb = not_bus(b);
    Bus out;
    out.reserve(a.size());
    NetId carry = vcc();
    for (std::size_t i = 0; i < a.size(); ++i) {
        out.push_back(lut(kMaskSum3, {a[i], nb[i], carry}, "diff"));
        if (i + 1 < a.size()) carry = lut(kMaskCarry3, {a[i], nb[i], carry}, "borrow");
    }
    return out;
}

Bus Builder::addsub(const Bus& a, const Bus& b, NetId subtract) {
    REFPGA_EXPECTS(a.size() == b.size() && !a.empty());
    Bus out;
    out.reserve(a.size());
    NetId carry = subtract;  // two's complement: +1 when subtracting
    for (std::size_t i = 0; i < a.size(); ++i) {
        const NetId bx = xor_(b[i], subtract);
        out.push_back(lut(kMaskSum3, {a[i], bx, carry}, "as_sum"));
        if (i + 1 < a.size()) carry = lut(kMaskCarry3, {a[i], bx, carry}, "as_carry");
    }
    return out;
}

Bus Builder::increment(const Bus& a) {
    Bus out;
    out.reserve(a.size());
    NetId carry = vcc();
    for (std::size_t i = 0; i < a.size(); ++i) {
        out.push_back(xor_(a[i], carry));
        if (i + 1 < a.size()) carry = and_(a[i], carry);
    }
    return out;
}

NetId Builder::eq(const Bus& a, const Bus& b) {
    REFPGA_EXPECTS(a.size() == b.size() && !a.empty());
    std::vector<NetId> terms;
    terms.reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) terms.push_back(xnor_(a[i], b[i]));
    // AND reduction tree.
    while (terms.size() > 1) {
        std::vector<NetId> next;
        for (std::size_t i = 0; i + 1 < terms.size(); i += 2)
            next.push_back(and_(terms[i], terms[i + 1]));
        if (terms.size() % 2 == 1) next.push_back(terms.back());
        terms = std::move(next);
    }
    return terms.front();
}

NetId Builder::lt_unsigned(const Bus& a, const Bus& b) {
    REFPGA_EXPECTS(a.size() == b.size() && !a.empty());
    NetId lt = gnd();
    for (std::size_t i = 0; i < a.size(); ++i)
        lt = lut(kMaskLt, {a[i], b[i], lt}, "lt");
    return lt;
}

NetId Builder::lt_signed(const Bus& a, const Bus& b) {
    REFPGA_EXPECTS(a.size() == b.size() && !a.empty());
    // Flip sign bits, then compare unsigned.
    Bus af = a;
    Bus bf = b;
    af.back() = not_(a.back());
    bf.back() = not_(b.back());
    return lt_unsigned(af, bf);
}

Bus Builder::reg(const Bus& d, NetId ce, const std::string& name) {
    Bus out;
    out.reserve(d.size());
    for (std::size_t i = 0; i < d.size(); ++i)
        out.push_back(ff(d[i], ce, name + std::to_string(i)));
    return out;
}

Bus Builder::counter(int width, NetId ce, const std::string& name) {
    return feedback_reg(width, [this](const Bus& q) { return increment(q); }, ce,
                        name);
}

Bus Builder::feedback_reg(int width, const std::function<Bus(const Bus&)>& next,
                          NetId ce, const std::string& name) {
    REFPGA_EXPECTS(width >= 1);
    // The feedback loop (Q -> logic -> D) needs the FFs before their D cones
    // exist: create FFs on placeholder D nets, build the next-state logic
    // from Q, then splice its outputs into the D pins.
    Bus d_placeholder;
    Bus q;
    for (int i = 0; i < width; ++i)
        d_placeholder.push_back(nl_.add_net(scoped(name, "_d", static_cast<std::uint64_t>(i))));
    for (int i = 0; i < width; ++i)
        q.push_back(nl_.add_ff(d_placeholder[i], clock_, ce,
                               scoped(name + std::to_string(i), "_", unique_++)));
    const Bus nx = next(q);
    REFPGA_EXPECTS(static_cast<int>(nx.size()) == width);
    for (int i = 0; i < width; ++i) {
        REFPGA_EXPECTS(nl_.net(d_placeholder[i]).fanout() == 1);
        nl_.rewire(netlist::PinRef{nl_.net(q[i]).driver.cell, 0}, nx[i]);
    }
    return q;
}

NetId Builder::rom_bit(const Bus& addr, const std::vector<bool>& column,
                       const std::string& name) {
    REFPGA_EXPECTS(column.size() == (std::size_t{1} << addr.size()));
    if (addr.size() <= 4) {
        std::uint16_t mask = 0;
        for (std::size_t i = 0; i < column.size(); ++i)
            if (column[i]) mask |= static_cast<std::uint16_t>(1u << i);
        return nl_.add_lut(mask, addr, scoped(name, "_", unique_++));
    }
    // Split on the MSB: two half-size ROMs plus a 2:1 mux.
    const Bus low_addr(addr.begin(), addr.end() - 1);
    const std::size_t half = column.size() / 2;
    const std::vector<bool> lo(column.begin(), column.begin() + static_cast<std::ptrdiff_t>(half));
    const std::vector<bool> hi(column.begin() + static_cast<std::ptrdiff_t>(half), column.end());
    const NetId lo_bit = rom_bit(low_addr, lo, name + "_l");
    const NetId hi_bit = rom_bit(low_addr, hi, name + "_h");
    return mux(addr.back(), lo_bit, hi_bit);
}

Bus Builder::rom_lut(const Bus& addr, const std::vector<std::uint32_t>& contents,
                     int data_bits, const std::string& name) {
    REFPGA_EXPECTS(!addr.empty() && addr.size() <= 12);
    const std::size_t depth = std::size_t{1} << addr.size();
    REFPGA_EXPECTS(contents.size() <= depth);
    Bus out;
    out.reserve(static_cast<std::size_t>(data_bits));
    for (int bit = 0; bit < data_bits; ++bit) {
        std::vector<bool> column(depth, false);
        for (std::size_t i = 0; i < contents.size(); ++i)
            column[i] = ((contents[i] >> bit) & 1) != 0;
        out.push_back(rom_bit(addr, column, name + "_b" + std::to_string(bit)));
    }
    return out;
}

Bus Builder::rom_bram(const Bus& addr, const std::vector<std::uint32_t>& contents,
                      int data_bits, const std::string& name) {
    BramConfig cfg;
    cfg.addr_bits = static_cast<int>(addr.size());
    cfg.data_bits = data_bits;
    cfg.writable = false;
    cfg.init = contents;
    return nl_.add_bram(cfg, addr, clock_, NetId{}, {}, scoped(name, "_", unique_++));
}

Bus Builder::mul_mult18(const Bus& a, const Bus& b, int out_bits, int shift,
                        const std::string& name) {
    REFPGA_EXPECTS(a.size() <= 18 && b.size() <= 18);
    REFPGA_EXPECTS(shift >= 0 && shift + out_bits <= 36);
    const Bus a18 = sign_extend(a, 18);
    const Bus b18 = sign_extend(b, 18);
    const auto product = nl_.add_mult18(a18, b18, scoped(name, "_", unique_++));
    return {product.begin() + shift, product.begin() + shift + out_bits};
}

Bus Builder::slice(const Bus& a, int lsb, int width) {
    REFPGA_EXPECTS(lsb >= 0 && lsb + width <= static_cast<int>(a.size()));
    return {a.begin() + lsb, a.begin() + lsb + width};
}

Bus Builder::concat(const Bus& low, const Bus& high) {
    Bus out = low;
    out.insert(out.end(), high.begin(), high.end());
    return out;
}

Bus Builder::zero_extend(const Bus& a, int width) {
    REFPGA_EXPECTS(static_cast<int>(a.size()) <= width);
    Bus out = a;
    while (static_cast<int>(out.size()) < width) out.push_back(gnd());
    return out;
}

Bus Builder::sign_extend(const Bus& a, int width) {
    REFPGA_EXPECTS(!a.empty() && static_cast<int>(a.size()) <= width);
    Bus out = a;
    while (static_cast<int>(out.size()) < width) out.push_back(a.back());
    return out;
}

}  // namespace refpga::netlist
