// Deterministic pseudo-random source for placement, noise injection and tests.
//
// A thin wrapper over a SplitMix64/xoshiro256** pair so results are exactly
// reproducible across platforms and standard-library versions (std::mt19937
// distributions are not portable across implementations).
//
// next_gaussian() is a 256-layer ziggurat (Marsaglia & Tsang 2000; tables in
// ziggurat_tables.hpp). One next_u64() supplies both the layer (low 8 bits)
// and a signed uniform (top 53 bits), disjoint bits as Doornik (2005)
// recommends. About 98.5 % of draws end on the fast path: an exact
// integer-to-double conversion, one multiply by a table constant and one
// compare, so their values are bit-identical on every IEEE-754 platform. The
// rest take the out-of-line slow path (the wedge test and Marsaglia's tail
// method beyond kR), which calls std::exp and std::log; those draws are only
// as reproducible across platforms as the platform's libm.
//
// Thread-safety: there is no global generator state anywhere in the library.
// An Rng instance is not synchronized — confine it to one thread — but
// independently seeded instances are fully isolated, which is what makes
// per-scenario deterministic seeding (refpga::fleet) possible.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "refpga/common/ziggurat_tables.hpp"

namespace refpga {

namespace detail {

static_assert(ziggurat::kLayers == 256, "the layer is the low 8 bits of one draw");

/// ziggurat::kX scaled by 2^-52 (exact: a power-of-two scale), so a signed
/// 53-bit integer times entry i is uniform on [-kX[i], kX[i]).
inline constexpr auto kZigUnit = [] {
    std::array<double, ziggurat::kLayers> unit{};
    for (int i = 0; i < ziggurat::kLayers; ++i) unit[i] = ziggurat::kX[i] * 0x1.0p-52;
    return unit;
}();

}  // namespace detail

class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
        // SplitMix64 expansion of the seed into xoshiro state.
        std::uint64_t x = seed;
        for (auto& s : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            s = z ^ (z >> 31);
        }
    }

    std::uint64_t next_u64() {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform integer in [0, bound). bound must be > 0.
    std::uint32_t next_below(std::uint32_t bound) {
        return static_cast<std::uint32_t>(next_u64() % bound);
    }

    /// Uniform double in [0, 1).
    double next_double() {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    /// Standard-normal variate (256-layer ziggurat, see the file comment).
    double next_gaussian();

private:
    struct SlowDraw;

    /// Wedge and tail of the ziggurat for a draw in `layer` whose fast-path
    /// test failed at `x`. Out of line and by value, so a caller holding
    /// the generator in registers (analog::FrontEnd's sample loop) spills it
    /// only on this rare path.
    static SlowDraw gaussian_slow(Rng rng, unsigned layer, double x);

    static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
    std::uint64_t state_[4]{};
};

struct Rng::SlowDraw {
    Rng rng;
    double value;
};

inline double Rng::next_gaussian() {
    const std::uint64_t bits = next_u64();
    const auto layer = static_cast<unsigned>(bits & 0xff);
    // Arithmetic shift: a signed integer uniform on [-2^52, 2^52), exactly
    // representable as a double.
    const double x = static_cast<double>(static_cast<std::int64_t>(bits) >> 11) *
                     detail::kZigUnit[layer];
    if (std::fabs(x) < ziggurat::kX[layer + 1]) [[likely]]
        return x;
    const SlowDraw slow = gaussian_slow(*this, layer, x);
    *this = slow.rng;
    return slow.value;
}

}  // namespace refpga
