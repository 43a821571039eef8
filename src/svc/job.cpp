#include "refpga/svc/job.hpp"

#include <system_error>
#include <vector>

#include "refpga/common/json.hpp"

namespace refpga::svc {

std::uint64_t parse_seed(const std::string& text, const std::string& key) {
    if (text.empty()) throw JobError(key + ": empty seed");
    std::uint64_t out = 0;
    const std::errc ec = parse_decimal(text, out);
    if (ec == std::errc::result_out_of_range)
        throw JobError(key + ": seed '" + text + "' overflows 64 bits");
    if (ec != std::errc{}) throw JobError(key + ": malformed seed '" + text + "'");
    return out;
}

namespace {

// Axis-value parsers, inverse of the names the fleet layer renders.
app::SystemVariant parse_variant(const std::string& name) {
    for (const auto v : {app::SystemVariant::Software, app::SystemVariant::MonolithicHw,
                         app::SystemVariant::ReconfiguredHw})
        if (name == app::variant_name(v)) return v;
    throw JobError("unknown variant '" + name + "'");
}

fabric::PartName parse_part(const std::string& id) {
    if (const auto part = fabric::parse_part(id)) return *part;
    throw JobError("unknown part '" + id + "'");
}

fleet::PortKind parse_port(const std::string& name) {
    for (const auto k : {fleet::PortKind::Jcap, fleet::PortKind::JcapAccelerated,
                         fleet::PortKind::Icap, fleet::PortKind::SelectMap})
        if (name == fleet::port_kind_name(k)) return k;
    throw JobError("unknown config port '" + name + "'");
}

/// Runs `read`, rethrowing its JsonError as a JobError that names `key`.
template <class Read>
auto keyed(const char* key, Read read) -> decltype(read()) {
    try {
        return read();
    } catch (const JsonError& e) {
        throw JobError(std::string(key) + ": " + e.what());
    }
}

// Doubles travel as hexfloat strings ("0x1.999999999999ap-4") so the
// canonical document survives any locale or printf quirk bit-exactly.
double number_value(const JsonValue& v, const char* key) {
    if (v.is(JsonValue::Kind::Number)) return v.number;  // plain JSON accepted
    if (!v.is(JsonValue::Kind::String))
        throw JobError(std::string(key) + ": expected number or hexfloat string");
    return keyed(key, [&] { return parse_hexfloat(v.string); });
}

const std::vector<JsonValue>& array_value(const JsonValue& v, const char* key) {
    return keyed(key, [&]() -> const std::vector<JsonValue>& { return v.as_array(); });
}

std::vector<double> double_list(const JsonValue& v, const char* key) {
    std::vector<double> out;
    for (const JsonValue& e : array_value(v, key)) out.push_back(number_value(e, key));
    return out;
}

/// Reads `v` as an array of strings, each one turned into a value by `parse`.
template <class Parse>
auto string_list(const JsonValue& v, const char* key, Parse parse) {
    std::vector<decltype(parse(std::string{}))> out;
    for (const JsonValue& e : array_value(v, key))
        out.push_back(
            parse(keyed(key, [&]() -> const std::string& { return e.as_string(); })));
    return out;
}

std::uint64_t seed_value(const JsonValue& v, const char* key) {
    // Seeds round-trip as decimal strings: 2^53 < seed values exist.
    if (v.is(JsonValue::Kind::String)) return parse_seed(v.string, key);
    // JSON numbers arrive as doubles, which hold every integer only below
    // 2^53: a larger one may already be rounded to a different seed.
    if (keyed(key, [&] { return v.as_number(); }) >= 9007199254740992.0)
        throw JobError(std::string(key) +
                       ": numeric seeds must be below 2^53; give the seed as a "
                       "decimal string, e.g. \"18446744073709551615\"");
    try {
        return json_integer<std::uint64_t>(v);
    } catch (const JsonError&) {
        throw JobError(std::string(key) + ": expected unsigned integer");
    }
}

void append_string_list(std::string& out, const char* key,
                        const std::vector<std::string>& values) {
    out += '"';
    out += key;
    out += "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += values[i];
        out += '"';
    }
    out += ']';
}

void append_double_list(std::string& out, const char* key,
                        const std::vector<double>& values) {
    out += '"';
    out += key;
    out += "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += hexfloat(values[i]);
        out += '"';
    }
    out += ']';
}

}  // namespace

JobSpec JobSpec::from_json(const std::string& text) {
    JsonValue doc;
    try {
        doc = parse_json(text);
    } catch (const JsonError& e) {
        throw JobError(std::string("job spec: ") + e.what());
    }
    if (!doc.is(JsonValue::Kind::Object))
        throw JobError("job spec: document is not an object");

    JobSpec spec;
    for (const auto& [key, value] : doc.object) {
        if (key == "variants") {
            spec.variants = string_list(value, "variants", parse_variant);
        } else if (key == "parts") {
            spec.parts = string_list(value, "parts", parse_part);
        } else if (key == "ports") {
            spec.ports = string_list(value, "ports", parse_port);
        } else if (key == "noise_levels") {
            spec.noise_levels = double_list(value, "noise_levels");
        } else if (key == "upset_rates") {
            spec.upset_rates = double_list(value, "upset_rates");
        } else if (key == "fault") {
            if (!value.is(JsonValue::Kind::Object))
                throw JobError("fault: expected object");
            for (const auto& [fkey, fvalue] : value.object) {
                if (fkey == "load_corruption_prob")
                    spec.fault_defaults.load_corruption_prob =
                        number_value(fvalue, "fault.load_corruption_prob");
                else if (fkey == "flash_error_prob")
                    spec.fault_defaults.flash_error_prob =
                        number_value(fvalue, "fault.flash_error_prob");
                else if (fkey == "glitch_prob_per_cycle")
                    spec.fault_defaults.glitch_prob_per_cycle =
                        number_value(fvalue, "fault.glitch_prob_per_cycle");
                else
                    throw JobError("fault: unknown key '" + fkey + "'");
            }
        } else if (key == "fills") {
            spec.fills.clear();
            for (const JsonValue& e : array_value(value, "fills")) {
                if (!e.is(JsonValue::Kind::Object))
                    throw JobError("fills: expected objects");
                fleet::FillProfile fill;
                for (const auto& [fkey, fvalue] : e.object) {
                    if (fkey == "start")
                        fill.start_level = number_value(fvalue, "fills.start");
                    else if (fkey == "end")
                        fill.end_level = number_value(fvalue, "fills.end");
                    else
                        throw JobError("fills: unknown key '" + fkey + "'");
                }
                spec.fills.push_back(fill);
            }
        } else if (key == "cycles") {
            spec.cycles = keyed("cycles", [&] { return json_integer<int>(value); });
        } else if (key == "campaign_seed") {
            spec.campaign_seed = seed_value(value, "campaign_seed");
        } else if (key == "stream_block_ticks") {
            spec.stream_block_ticks =
                keyed("stream_block_ticks", [&] { return json_integer<int>(value); });
            if (spec.stream_block_ticks <= 0)
                throw JobError("stream_block_ticks: must be positive");
        } else {
            throw JobError("job spec: unknown key '" + key + "'");
        }
    }
    try {
        spec.validate();
    } catch (const std::invalid_argument& e) {
        throw JobError(e.what());
    }
    return spec;
}

std::string JobSpec::canonical_json() const {
    std::string out = "{";

    std::vector<std::string> names;
    for (const auto v : variants) names.emplace_back(app::variant_name(v));
    append_string_list(out, "variants", names);

    names.clear();
    for (const auto p : parts) names.emplace_back(fabric::part(p).id);
    out += ',';
    append_string_list(out, "parts", names);

    names.clear();
    for (const auto k : ports) names.emplace_back(fleet::port_kind_name(k));
    out += ',';
    append_string_list(out, "ports", names);

    out += ',';
    append_double_list(out, "noise_levels", noise_levels);
    out += ',';
    append_double_list(out, "upset_rates", upset_rates);

    out += ",\"fault\":{\"load_corruption_prob\":\"" +
           hexfloat(fault_defaults.load_corruption_prob) +
           "\",\"flash_error_prob\":\"" + hexfloat(fault_defaults.flash_error_prob) +
           "\",\"glitch_prob_per_cycle\":\"" +
           hexfloat(fault_defaults.glitch_prob_per_cycle) + "\"}";

    out += ",\"fills\":[";
    for (std::size_t i = 0; i < fills.size(); ++i) {
        if (i > 0) out += ',';
        out += "{\"start\":\"" + hexfloat(fills[i].start_level) + "\",\"end\":\"" +
               hexfloat(fills[i].end_level) + "\"}";
    }
    out += ']';

    out += ",\"cycles\":" + std::to_string(cycles);
    out += ",\"campaign_seed\":\"" + std::to_string(campaign_seed) + "\"";
    out += ",\"stream_block_ticks\":" + std::to_string(stream_block_ticks);
    out += '}';
    return out;
}

std::uint64_t JobSpec::fingerprint() const {
    const std::string doc = canonical_json();
    std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
    for (const char c : doc) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;  // FNV prime
    }
    return hash;
}

}  // namespace refpga::svc
