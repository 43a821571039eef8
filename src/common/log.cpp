#include "refpga/common/log.hpp"

#include <iostream>
#include <mutex>

namespace refpga {

void log_warning_line(const std::string& msg) {
    // Serializes whole messages so concurrent threads never interleave.
    static std::mutex sink_mutex;
    const std::lock_guard<std::mutex> lock(sink_mutex);
    std::cerr << "[refpga:WARN] " << msg << '\n';
}

}  // namespace refpga
