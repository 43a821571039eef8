#include "refpga/fleet/outcome_codec.hpp"

#include <array>
#include <variant>

#include "refpga/common/json.hpp"

namespace refpga::fleet {

namespace {

using Member = std::variant<bool ScenarioOutcome::*, std::string ScenarioOutcome::*,
                            double ScenarioOutcome::*, long ScenarioOutcome::*,
                            std::size_t ScenarioOutcome::*>;

struct Field {
    const char* key;
    Member member;
};

/// Every encoded field, in line order: the one list both directions walk.
constexpr std::array<Field, 23> kFields{{
    {"ok", &ScenarioOutcome::ok},
    {"error", &ScenarioOutcome::error},
    {"level_error_mean", &ScenarioOutcome::level_error_mean},
    {"level_error_max", &ScenarioOutcome::level_error_max},
    {"cycle_busy_ms", &ScenarioOutcome::cycle_busy_ms},
    {"reconfig_ms_per_cycle", &ScenarioOutcome::reconfig_ms_per_cycle},
    {"static_mw", &ScenarioOutcome::static_mw},
    {"dynamic_mw", &ScenarioOutcome::dynamic_mw},
    {"reconfig_energy_mj", &ScenarioOutcome::reconfig_energy_mj},
    {"upsets_injected", &ScenarioOutcome::upsets_injected},
    {"upsets_detected", &ScenarioOutcome::upsets_detected},
    {"columns_repaired", &ScenarioOutcome::columns_repaired},
    {"load_retries", &ScenarioOutcome::load_retries},
    {"load_failures", &ScenarioOutcome::load_failures},
    {"rejected_cycles", &ScenarioOutcome::rejected_cycles},
    {"fallback_cycles", &ScenarioOutcome::fallback_cycles},
    {"availability", &ScenarioOutcome::availability},
    {"mttd_ms", &ScenarioOutcome::mttd_ms},
    {"mttr_ms", &ScenarioOutcome::mttr_ms},
    {"scrub_ms_per_cycle", &ScenarioOutcome::scrub_ms_per_cycle},
    {"resident_slices", &ScenarioOutcome::resident_slices},
    {"fitted_part", &ScenarioOutcome::fitted_part},
    {"device_fits", &ScenarioOutcome::device_fits},
}};

void write(std::string& out, bool v) { out += v ? "true" : "false"; }
void write(std::string& out, const std::string& v) {
    out += '"';
    out += json_escape(v);
    out += '"';
}
void write(std::string& out, double v) { write(out, hexfloat(v)); }
void write(std::string& out, long v) { out += std::to_string(v); }
void write(std::string& out, std::size_t v) { out += std::to_string(v); }

void read(const JsonValue& v, bool& out) { out = v.as_bool(); }
void read(const JsonValue& v, std::string& out) { out = v.as_string(); }
void read(const JsonValue& v, double& out) { out = parse_hexfloat(v.as_string()); }
void read(const JsonValue& v, long& out) { out = json_integer<long>(v); }
void read(const JsonValue& v, std::size_t& out) { out = json_integer<std::size_t>(v); }

}  // namespace

std::string encode_outcome_line(const ScenarioOutcome& o) {
    std::string out = "{";
    for (const Field& f : kFields) {
        if (out.size() > 1) out += ',';
        out += '"';
        out += f.key;
        out += "\":";
        std::visit([&](auto member) { write(out, o.*member); }, f.member);
    }
    out += '}';
    return out;
}

ScenarioOutcome decode_outcome_line(std::string_view line) {
    JsonValue doc;
    try {
        doc = parse_json(line);
    } catch (const JsonError& e) {
        throw CodecError(std::string("outcome line: ") + e.what());
    }
    if (!doc.is(JsonValue::Kind::Object))
        throw CodecError("outcome line is not a JSON object");
    if (doc.object.size() != kFields.size())
        throw CodecError("outcome line has " + std::to_string(doc.object.size()) +
                         " keys, expected " + std::to_string(kFields.size()));
    ScenarioOutcome o;
    for (std::size_t i = 0; i < kFields.size(); ++i) {
        const std::string& key = doc.object[i].first;
        const JsonValue& value = doc.object[i].second;
        if (key != kFields[i].key)
            throw CodecError("outcome line key " + std::to_string(i) + " is '" + key +
                             "', expected '" + kFields[i].key + "'");
        try {
            std::visit([&](auto member) { read(value, o.*member); }, kFields[i].member);
        } catch (const JsonError& e) {
            throw CodecError("outcome line '" + key + "': " + e.what());
        }
    }
    return o;
}

}  // namespace refpga::fleet
