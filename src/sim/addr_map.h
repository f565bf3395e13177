/**
 * @file
 * A flat, open-addressing map from a non-null address to a value.
 *
 * For host-side tables the replay touches once per simulated object (a
 * pointer's requested size, an arena header, an allocator's span or
 * slab), where a node-based map would make one host allocation per
 * simulated one. Keys and values sit in two flat arrays; a key is
 * placed by a Fibonacci hash and linear probing, and erase shifts the
 * probe chain back, so there are no tombstones and the host heap is
 * touched only when the arrays double, at three-quarters load. Values
 * move, never copy, when the arrays grow or a chain shifts, so a value
 * may own heap storage; a pointer into the map is void after any
 * insert or take.
 *
 * Slot order is fixed by this file's own hash and growth policy, not
 * by a standard library, so forEach() visits the same order on every
 * host; it is still an order of hash slots, and a caller whose output
 * depends on visit order walks sortedKeys() instead.
 */

#ifndef MEMENTO_SIM_ADDR_MAP_H
#define MEMENTO_SIM_ADDR_MAP_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace memento {

template <typename V>
class AddrMap
{
  public:
    AddrMap() : keys_(kMinSlots, kNullAddr), values_(kMinSlots) {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Map @p key (never kNullAddr) to @p value, replacing any value. */
    void
    insert(Addr key, V value)
    {
        panic_if(key == kNullAddr, "AddrMap: null key");
        if ((size_ + 1) * 4 > keys_.size() * 3)
            grow();
        const std::size_t i = slotOf(key);
        if (keys_[i] == kNullAddr) {
            keys_[i] = key;
            ++size_;
        }
        values_[i] = std::move(value);
    }

    /** The value of @p key, or nullptr when absent. */
    const V *
    find(Addr key) const
    {
        const std::size_t i = slotOf(key);
        return keys_[i] == kNullAddr ? nullptr : &values_[i];
    }

    V *
    find(Addr key)
    {
        const std::size_t i = slotOf(key);
        return keys_[i] == kNullAddr ? nullptr : &values_[i];
    }

    /** The value of @p key, which must be present. */
    V &
    at(Addr key)
    {
        V *value = find(key);
        panic_if(!value, "AddrMap: no entry at 0x", std::hex, key);
        return *value;
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /** Remove @p key and return its value; nullopt when absent. */
    std::optional<V>
    take(Addr key)
    {
        std::size_t i = slotOf(key);
        if (keys_[i] == kNullAddr)
            return std::nullopt;
        std::optional<V> value(std::move(values_[i]));
        --size_;
        // Backward shift: move each later entry of the chain whose home
        // is not cyclically in (i, j] into the hole, until a gap.
        for (std::size_t j = i;;) {
            j = (j + 1) & mask();
            if (keys_[j] == kNullAddr)
                break;
            if (((j - home(keys_[j])) & mask()) >= ((j - i) & mask())) {
                keys_[i] = keys_[j];
                values_[i] = std::move(values_[j]);
                i = j;
            }
        }
        keys_[i] = kNullAddr;
        return value;
    }

    /**
     * Forget every entry. The arrays keep their size; each value is
     * reset, so none keeps heap storage it owned.
     */
    void
    clear()
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kNullAddr) {
                keys_[i] = kNullAddr;
                values_[i] = V{};
            }
        }
        size_ = 0;
    }

    /** Call @p fn(key, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys_.size(); ++i)
            if (keys_[i] != kNullAddr)
                fn(keys_[i], values_[i]);
    }

    /** Every key, ascending. */
    std::vector<Addr>
    sortedKeys() const
    {
        std::vector<Addr> keys;
        keys.reserve(size_);
        for (const Addr key : keys_)
            if (key != kNullAddr)
                keys.push_back(key);
        std::sort(keys.begin(), keys.end());
        return keys;
    }

  private:
    static constexpr unsigned kMinSlotBits = 8;
    static constexpr std::size_t kMinSlots = std::size_t{1} << kMinSlotBits;

    std::size_t mask() const { return keys_.size() - 1; }

    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                        shift_);
    }

    /** The slot holding @p key, or the empty slot ending its chain. */
    std::size_t
    slotOf(Addr key) const
    {
        std::size_t i = home(key);
        while (keys_[i] != kNullAddr && keys_[i] != key)
            i = (i + 1) & mask();
        return i;
    }

    void
    grow()
    {
        std::vector<Addr> old_keys(keys_.size() * 2, kNullAddr);
        std::vector<V> old_values(values_.size() * 2);
        old_keys.swap(keys_);
        old_values.swap(values_);
        --shift_;
        for (std::size_t j = 0; j < old_keys.size(); ++j) {
            if (old_keys[j] == kNullAddr)
                continue;
            const std::size_t i = slotOf(old_keys[j]);
            keys_[i] = old_keys[j];
            values_[i] = std::move(old_values[j]);
        }
    }

    std::vector<Addr> keys_;
    std::vector<V> values_;
    /** 64 - log2(slot count): home() keeps the hash's top bits. */
    unsigned shift_ = 64 - kMinSlotBits;
    std::size_t size_ = 0;
};

} // namespace memento

#endif // MEMENTO_SIM_ADDR_MAP_H
