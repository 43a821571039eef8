// Warnings to stderr.
//
// Thread-safety: log_warning may be called from any thread; each message is
// emitted whole under an internal lock, so concurrent lines never
// interleave.
#pragma once

#include <sstream>
#include <string>

namespace refpga {

/// Writes "[refpga:WARN] <msg>" and a newline to stderr.
void log_warning_line(const std::string& msg);

/// Streams `args` into one message and writes it with log_warning_line.
template <typename... Args>
void log_warning(const Args&... args) {
    std::ostringstream os;
    (os << ... << args);
    log_warning_line(os.str());
}

}  // namespace refpga
