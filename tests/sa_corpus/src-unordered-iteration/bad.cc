// True positive: an unordered container, even one only probed and
// never iterated here. The next walk over it would feed output in the
// standard library's hash order, so the type itself is banned.
#include <cstdint>
#include <unordered_map>

bool
seenBefore(std::uint64_t id)
{
    static std::unordered_map<std::uint64_t, std::uint64_t> seen;
    return !seen.emplace(id, 1).second;
}
