// Near-miss: an ordered std::map iterates in key order, deterministic
// by construction. The #include line below, this comment's mention of
// std::unordered_map and the string literal are not code, so they
// stay silent.
#include <cstdint>
#include <map>

const char *const kNote = "not a std::unordered_set";

std::uint64_t
sumAndEmit(const std::map<std::uint64_t, std::uint64_t> &live)
{
    std::uint64_t acc = 0;
    for (const auto &[id, len] : live)
        acc = acc * 31 + id + len;
    return acc;
}
