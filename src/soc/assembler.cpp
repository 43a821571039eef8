#include "refpga/soc/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <climits>
#include <sstream>

#include "refpga/common/contracts.hpp"

namespace refpga::soc {

namespace {

struct Token {
    std::string text;
};

std::string strip(const std::string& s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
    return s.substr(b, e - b);
}

std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return s;
}

/// Splits "add r1, r2, r3" into mnemonic + operand list.
void split_statement(const std::string& stmt, std::string& mnem,
                     std::vector<std::string>& operands) {
    const std::size_t sp = stmt.find_first_of(" \t");
    mnem = lower(stmt.substr(0, sp));
    operands.clear();
    if (sp == std::string::npos) return;
    for (std::size_t begin = sp + 1; begin <= stmt.size();) {
        const std::size_t comma = std::min(stmt.find(',', begin), stmt.size());
        std::string item = strip(stmt.substr(begin, comma - begin));
        if (!item.empty()) operands.push_back(std::move(item));
        begin = comma + 1;
    }
}

class Assembler {
public:
    explicit Assembler(const std::string& source) : source_(source) {}

    Program run() {
        pass(/*emit=*/false);
        pass(/*emit=*/true);
        return std::move(program_);
    }

private:
    [[noreturn]] void fail(const std::string& message) const {
        throw ContractViolation("asm line " + std::to_string(line_no_) + ": " +
                                message);
    }

    std::uint8_t parse_register(const std::string& text) const {
        const std::string t = lower(strip(text));
        if (t.size() < 2 || t[0] != 'r') fail("expected register, got '" + text + "'");
        int n = 0;
        for (std::size_t i = 1; i < t.size(); ++i) {
            if (std::isdigit(static_cast<unsigned char>(t[i])) == 0)
                fail("bad register '" + text + "'");
            n = n * 10 + (t[i] - '0');
        }
        if (n < 0 || n > 31) fail("register out of range '" + text + "'");
        return static_cast<std::uint8_t>(n);
    }

    /// Values: number, label, hi(x), lo(x).
    std::int64_t parse_value(const std::string& text, bool emit) const {
        const std::string t = strip(text);
        if (t.rfind("hi(", 0) == 0 && t.back() == ')')
            return (parse_value(t.substr(3, t.size() - 4), emit) >> 16) & 0xFFFF;
        if (t.rfind("lo(", 0) == 0 && t.back() == ')')
            return parse_value(t.substr(3, t.size() - 4), emit) & 0xFFFF;
        if (!t.empty() && (std::isdigit(static_cast<unsigned char>(t[0])) != 0 ||
                           t[0] == '-' || t[0] == '+')) {
            try {
                return std::stoll(t, nullptr, 0);
            } catch (const std::exception&) {
                fail("bad number '" + text + "'");
            }
        }
        const auto it = program_.labels.find(t);
        if (it == program_.labels.end()) {
            if (emit) fail("unknown label '" + t + "'");
            return 0;  // first pass: labels may be forward references
        }
        return it->second;
    }

    void emit_word(std::uint32_t word, bool emit) {
        if (emit) program_.words[addr_] = word;
        advance(4);
    }

    void advance(std::uint32_t bytes) {
        addr_ += bytes;
        program_.extent = std::max(program_.extent, addr_);
    }

    void handle_directive(const std::string& mnem,
                          const std::vector<std::string>& operands, bool emit) {
        if (mnem == ".org") {
            if (operands.size() != 1) fail(".org needs one operand");
            addr_ = static_cast<std::uint32_t>(parse_value(operands[0], emit));
        } else if (mnem == ".word") {
            if (operands.empty()) fail(".word needs operands");
            for (const auto& op : operands)
                emit_word(static_cast<std::uint32_t>(parse_value(op, emit)), emit);
        } else if (mnem == ".space") {
            if (operands.size() != 1) fail(".space needs one operand");
            const auto bytes = parse_value(operands[0], emit);
            if (bytes < 0 || bytes % 4 != 0) fail(".space must be a multiple of 4");
            if (bytes > std::int64_t{0xFFFF'FFFF} - addr_)
                fail(".space runs past the end of the address space");
            // Reserved, not emitted: loading into zero-initialised memory
            // leaves the range zeroed all the same.
            advance(static_cast<std::uint32_t>(bytes));
        } else {
            fail("unknown directive '" + mnem + "'");
        }
    }

    void handle_instruction(const std::string& mnem,
                            const std::vector<std::string>& operands, bool emit) {
        const auto op = parse_mnemonic(mnem);
        if (!op) fail("unknown mnemonic '" + mnem + "'");
        Instruction insn;
        insn.op = *op;

        auto imm_of = [&](const std::string& text) {
            const std::int64_t value = parse_value(text, emit);
            if (value < INT32_MIN || value > INT32_MAX)
                fail(mnem + " immediate " + std::to_string(value) + " out of range");
            return static_cast<std::int32_t>(value);
        };
        auto branch_off = [&](const std::string& text) {
            const auto target = parse_value(text, emit);
            return static_cast<std::int32_t>(target - (addr_ + 4));
        };
        auto need = [&](std::size_t n) {
            if (operands.size() != n)
                fail(mnem + " expects " + std::to_string(n) + " operands");
        };

        switch (insn.op) {
            case Opcode::Add:
            case Opcode::Sub:
            case Opcode::Mul:
            case Opcode::Mulh:
            case Opcode::And:
            case Opcode::Or:
            case Opcode::Xor:
            case Opcode::Sll:
            case Opcode::Srl:
            case Opcode::Sra:
                need(3);
                insn.rd = parse_register(operands[0]);
                insn.ra = parse_register(operands[1]);
                insn.rb = parse_register(operands[2]);
                break;
            case Opcode::Addi:
            case Opcode::Andi:
            case Opcode::Ori:
            case Opcode::Xori:
            case Opcode::Slli:
            case Opcode::Srli:
            case Opcode::Srai:
            case Opcode::Lw:
            case Opcode::Sw:
                need(3);
                insn.rd = parse_register(operands[0]);
                insn.ra = parse_register(operands[1]);
                insn.imm = imm_of(operands[2]);
                break;
            case Opcode::Lui:
                need(2);
                insn.rd = parse_register(operands[0]);
                insn.imm = imm_of(operands[1]);
                break;
            case Opcode::Beq:
            case Opcode::Bne:
            case Opcode::Blt:
            case Opcode::Bge:
            case Opcode::Bltu:
            case Opcode::Bgeu:
                need(3);
                insn.ra = parse_register(operands[0]);
                insn.rd = parse_register(operands[1]);  // rb lives in the rd slot
                insn.imm = branch_off(operands[2]);
                break;
            case Opcode::Br:
            case Opcode::Brl:
                need(1);
                insn.imm = branch_off(operands[0]);
                break;
            case Opcode::Jr:
                need(1);
                insn.ra = parse_register(operands[0]);
                break;
            case Opcode::Get:
                need(2);
                insn.rd = parse_register(operands[0]);
                insn.imm = imm_of(operands[1]);
                break;
            case Opcode::Put:
                need(2);
                insn.ra = parse_register(operands[0]);
                insn.imm = imm_of(operands[1]);
                break;
            case Opcode::Halt:
                need(0);
                break;
        }
        if (!emit && has_immediate(insn.op)) insn.imm = 0;  // placeholder pass
        std::uint32_t word = 0;
        try {
            word = encode(insn);  // checks the immediate against its field
        } catch (const ContractViolation& e) {
            fail(e.what());
        }
        emit_word(word, emit);
    }

    void pass(bool emit) {
        addr_ = 0;
        program_.extent = 0;
        line_no_ = 0;
        std::istringstream is(source_);
        std::string raw;
        while (std::getline(is, raw)) {
            ++line_no_;
            // Strip comments.
            const std::size_t comment = raw.find_first_of(";#");
            std::string stmt = strip(comment == std::string::npos
                                         ? raw
                                         : raw.substr(0, comment));
            if (stmt.empty()) continue;
            // Labels (possibly followed by a statement on the same line).
            const std::size_t colon = stmt.find(':');
            if (colon != std::string::npos &&
                stmt.find_first_of(" \t") > colon) {
                const std::string label = strip(stmt.substr(0, colon));
                if (label.empty()) fail("empty label");
                if (!emit) {
                    if (program_.labels.count(label) != 0)
                        fail("duplicate label '" + label + "'");
                    program_.labels[label] = addr_;
                }
                stmt = strip(stmt.substr(colon + 1));
                if (stmt.empty()) continue;
            }
            std::string mnem;
            std::vector<std::string> operands;
            split_statement(stmt, mnem, operands);
            if (mnem.empty()) continue;
            if (mnem[0] == '.')
                handle_directive(mnem, operands, emit);
            else
                handle_instruction(mnem, operands, emit);
        }
    }

    const std::string& source_;
    Program program_;
    std::uint32_t addr_ = 0;
    int line_no_ = 0;
};

}  // namespace

Program assemble(const std::string& source) { return Assembler(source).run(); }

}  // namespace refpga::soc
