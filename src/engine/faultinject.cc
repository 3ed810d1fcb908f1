#include "engine/faultinject.hh"

#include <cstdlib>

#include "base/logging.hh"
#include "base/strings.hh"

namespace rex::engine {

namespace {

/** splitmix64: a well-mixed 64->64 hash (public-domain constants). */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

constexpr std::size_t kPointCount =
    static_cast<std::size_t>(FaultPoint::kCount);

const char *const kPointNames[kPointCount] = {
    "cache-read", "cache-write", "sink-write",
    "pool-spawn", "sock-accept", "sock-send",
    "worker-crash", "worker-hang",
};

int
pointIndexByName(const std::string &name)
{
    for (std::size_t i = 0; i < kPointCount; ++i) {
        if (name == kPointNames[i])
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace

const char *
faultPointName(FaultPoint point)
{
    const std::size_t index = static_cast<std::size_t>(point);
    return index < kPointCount ? kPointNames[index] : "?";
}

FaultInjector &
FaultInjector::instance()
{
    // Leaked-singleton pattern (like Engine::shared()): never destroyed,
    // so late-exiting threads can't race static teardown.
    static FaultInjector *injector = new FaultInjector();
    return *injector;
}

FaultInjector::FaultInjector()
{
    if (const char *spec = std::getenv("REX_FAULT_SPEC"))
        configure(spec);
}

void
FaultInjector::configure(const std::string &spec)
{
    for (Point &point : _points) {
        point.armed.store(false, std::memory_order_relaxed);
        point.probability.store(0.0, std::memory_order_relaxed);
        point.seed.store(0, std::memory_order_relaxed);
        point.calls.store(0, std::memory_order_relaxed);
        point.injected.store(0, std::memory_order_relaxed);
    }
    bool any = false;
    for (const std::string &raw : split(spec, ',')) {
        const std::string clause = trim(raw);
        if (clause.empty())
            continue;
        const std::vector<std::string> parts = split(clause, ':');
        if (parts.size() != 3) {
            warn("fault spec: ignoring malformed clause '" + clause +
                 "' (want point:probability:seed)");
            continue;
        }
        const int index = pointIndexByName(trim(parts[0]));
        if (index < 0) {
            warn("fault spec: unknown point '" + trim(parts[0]) + "'");
            continue;
        }
        char *end = nullptr;
        const double probability =
            std::strtod(parts[1].c_str(), &end);
        if (!end || *end != '\0' || probability < 0.0 ||
                probability > 1.0) {
            warn("fault spec: bad probability '" + parts[1] + "'");
            continue;
        }
        const std::uint64_t seed =
            std::strtoull(parts[2].c_str(), &end, 10);
        if (!end || *end != '\0') {
            warn("fault spec: bad seed '" + parts[2] + "'");
            continue;
        }
        Point &point = _points[index];
        point.probability.store(probability, std::memory_order_relaxed);
        point.seed.store(seed, std::memory_order_relaxed);
        point.armed.store(probability > 0.0, std::memory_order_relaxed);
        any |= probability > 0.0;
    }
    _anyArmed.store(any, std::memory_order_relaxed);
}

bool
FaultInjector::shouldFailSlow(FaultPoint point)
{
    Point &p = _points[static_cast<std::size_t>(point)];
    if (!p.armed.load(std::memory_order_relaxed))
        return false;
    const std::uint64_t k =
        p.calls.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t hash =
        splitmix64(p.seed.load(std::memory_order_relaxed) + k);
    // Top 53 bits -> uniform double in [0, 1).
    const double draw =
        static_cast<double>(hash >> 11) * 0x1.0p-53;
    if (draw >= p.probability.load(std::memory_order_relaxed))
        return false;
    p.injected.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
FaultInjector::armed(FaultPoint point) const
{
    return _points[static_cast<std::size_t>(point)].armed.load(
        std::memory_order_relaxed);
}

std::uint64_t
FaultInjector::checked(FaultPoint point) const
{
    return _points[static_cast<std::size_t>(point)].calls.load(
        std::memory_order_relaxed);
}

std::uint64_t
FaultInjector::injected(FaultPoint point) const
{
    return _points[static_cast<std::size_t>(point)].injected.load(
        std::memory_order_relaxed);
}

} // namespace rex::engine
