#include "refpga/common/rng.hpp"

namespace refpga {

Rng::SlowDraw Rng::gaussian_slow(Rng rng, unsigned layer, double x) {
    using ziggurat::kF;
    using ziggurat::kR;
    if (layer == 0) {
        // Marsaglia's tail method: beyond kR, with uniforms on (0, 1] so
        // neither logarithm sees zero.
        const auto open_unit = [&rng] {
            return (static_cast<double>(rng.next_u64() >> 11) + 1.0) * 0x1.0p-53;
        };
        double a = 0.0;
        double b = 0.0;
        do {
            a = -std::log(open_unit()) / kR;
            b = -std::log(open_unit());
        } while (b + b < a * a);
        return {rng, x < 0.0 ? -(kR + a) : kR + a};
    }
    // Wedge: a uniform height inside the layer, accepted under the curve.
    const double y = kF[layer] + rng.next_double() * (kF[layer + 1] - kF[layer]);
    if (y < std::exp(-0.5 * x * x)) return {rng, x};
    // Rejected: the draw starts over (draw first, then copy the generator).
    const double retry = rng.next_gaussian();
    return {rng, retry};
}

}  // namespace refpga
