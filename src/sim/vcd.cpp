#include "refpga/sim/vcd.hpp"

#include <istream>
#include <sstream>

#include "refpga/common/contracts.hpp"

namespace refpga::sim {

VcdWriter::VcdWriter(std::ostream& os, const SimEngine& sim,
                     std::vector<netlist::NetId> nets)
    : os_(os), sim_(sim), nets_(std::move(nets)) {
    codes_.reserve(nets_.size());
    last_.assign(nets_.size(), -1);

    os_ << "$timescale 1ps $end\n";
    os_ << "$scope module top $end\n";
    for (std::size_t i = 0; i < nets_.size(); ++i) {
        codes_.push_back(code_for(i));
        const auto& net = sim_.netlist().net(nets_[i]);
        // VCD identifiers must not contain whitespace; net names are safe
        // (builder uses [a-zA-Z0-9_/.\[\]]).
        os_ << "$var wire 1 " << codes_[i] << ' ' << net.name << " $end\n";
    }
    os_ << "$upscope $end\n$enddefinitions $end\n";
}

std::string VcdWriter::code_for(std::size_t index) {
    // Printable identifier alphabet '!'..'~' (94 symbols), little-endian.
    std::string code;
    do {
        code += static_cast<char>('!' + index % 94);
        index /= 94;
    } while (index != 0);
    return code;
}

void VcdWriter::sample(std::int64_t time_ps) {
    REFPGA_EXPECTS(time_ps > last_time_);
    bool header_emitted = false;
    for (std::size_t i = 0; i < nets_.size(); ++i) {
        const auto v = static_cast<std::int8_t>(sim_.net_value(nets_[i]) ? 1 : 0);
        if (v == last_[i]) continue;
        if (!header_emitted) {
            os_ << '#' << time_ps << '\n';
            header_emitted = true;
        }
        os_ << (v != 0 ? '1' : '0') << codes_[i] << '\n';
        last_[i] = v;
    }
    last_time_ = time_ps;
}

namespace {

struct VcdVarState {
    std::string name;
    std::size_t width = 1;
    std::vector<std::int8_t> last;  ///< per bit, LSB first; -1 = unknown
};

}  // namespace

VcdActivity parse_vcd(std::istream& is) {
    VcdActivity activity;
    std::map<std::string, VcdVarState> vars;
    std::int64_t first_time = -1;
    std::int64_t time = 0;

    std::string token;
    while (is >> token) {
        if (token == "$var") {
            // $var wire N <code> <name> $end
            std::string type, width, code, name, end;
            if (!(is >> type >> width >> code >> name >> end))
                throw VcdParseError("vcd: truncated $var declaration");
            if (end != "$end")
                throw VcdParseError("vcd: $var declaration not closed by $end");
            std::size_t w = 0;
            std::size_t consumed = 0;
            try {
                w = static_cast<std::size_t>(std::stoull(width, &consumed));
            } catch (const std::exception&) {
                consumed = 0;
            }
            if (consumed != width.size() || w == 0)
                throw VcdParseError("vcd: bad $var width '" + width + "'");
            VcdVarState& v = vars[code];
            v.name = name;
            v.width = w;
            v.last.assign(w, -1);
        } else if (token[0] == '$') {
            // Skip other directives until their $end.
            if (token != "$end" && token.find("$end") == std::string::npos) {
                std::string w;
                while (is >> w && w != "$end") {
                }
                if (w != "$end")
                    throw VcdParseError("vcd: directive " + token +
                                        " not closed by $end");
            }
        } else if (token[0] == '#') {
            std::int64_t t = 0;
            std::size_t consumed = 0;
            try {
                t = std::stoll(token.substr(1), &consumed);
            } catch (const std::exception&) {
                throw VcdParseError("vcd: malformed timestamp '" + token + "'");
            }
            if (consumed != token.size() - 1)
                throw VcdParseError("vcd: malformed timestamp '" + token + "'");
            if (first_time >= 0 && t <= time)
                throw VcdParseError("vcd: non-increasing timestamp '" + token +
                                    "'");
            time = t;
            if (first_time < 0) first_time = time;
            activity.duration_ps = time - first_time;
        } else if (token[0] == '0' || token[0] == '1' || token[0] == 'x' ||
                   token[0] == 'z' || token[0] == 'X' || token[0] == 'Z') {
            if (first_time < 0)
                throw VcdParseError(
                    "vcd: value change before the first timestamp");
            const std::string code = token.substr(1);
            auto it = vars.find(code);
            if (it == vars.end())
                throw VcdParseError("vcd: value change for undeclared "
                                    "identifier '" + code + "'");
            std::int8_t& last = it->second.last[0];
            if (token[0] != '0' && token[0] != '1') {
                last = -1;  // unknown/hi-Z: resets toggle tracking
                continue;
            }
            const auto v = static_cast<std::int8_t>(token[0] - '0');
            if (last >= 0 && last != v) ++activity.toggles[it->second.name];
            if (last < 0) activity.toggles.try_emplace(it->second.name, 0);
            last = v;
        } else if (token[0] == 'b' || token[0] == 'B' || token[0] == 'r' ||
                   token[0] == 'R') {
            // Vector/real change: the value token is followed by its
            // identifier. Width-1 declarations keep the historical
            // skip-but-validate behaviour; width>1 accumulates per-bit
            // toggles under name[i].
            const std::string value = token.substr(1);
            std::string code;
            if (!(is >> code))
                throw VcdParseError("vcd: truncated vector value change");
            auto it = vars.find(code);
            if (it == vars.end())
                throw VcdParseError("vcd: vector change for undeclared "
                                    "identifier '" + code + "'");
            VcdVarState& var = it->second;
            if (var.width <= 1 || token[0] == 'r' || token[0] == 'R') continue;
            if (first_time < 0)
                throw VcdParseError(
                    "vcd: value change before the first timestamp");
            if (value.empty() || value.size() > var.width)
                throw VcdParseError("vcd: vector value '" + token +
                                    "' does not fit width " +
                                    std::to_string(var.width) + " variable '" +
                                    var.name + "'");
            for (const char ch : value)
                if (ch != '0' && ch != '1' && ch != 'x' && ch != 'X' &&
                    ch != 'z' && ch != 'Z')
                    throw VcdParseError("vcd: bad vector digit in '" + token +
                                        "'");
            // IEEE 1364 left-extension: short values extend with 0 unless the
            // leftmost digit is x/z, which extends with itself.
            const char leftmost = value.front();
            const char pad =
                (leftmost == '0' || leftmost == '1') ? '0' : leftmost;
            for (std::size_t bit = 0; bit < var.width; ++bit) {
                // bit 0 is the rightmost digit.
                const char ch = bit < value.size()
                                    ? value[value.size() - 1 - bit]
                                    : pad;
                std::int8_t& last = var.last[bit];
                const std::string key =
                    var.name + "[" + std::to_string(bit) + "]";
                if (ch != '0' && ch != '1') {
                    last = -1;
                    continue;
                }
                const auto v = static_cast<std::int8_t>(ch - '0');
                if (last >= 0 && last != v) ++activity.toggles[key];
                if (last < 0) activity.toggles.try_emplace(key, 0);
                last = v;
            }
        } else {
            throw VcdParseError("vcd: unrecognized token '" + token + "'");
        }
    }
    if (first_time < 0 && !vars.empty())
        throw VcdParseError("vcd: no value-change section after declarations");
    return activity;
}

}  // namespace refpga::sim
