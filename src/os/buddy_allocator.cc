#include "os/buddy_allocator.h"

#include <algorithm>
#include <sstream>

#include "sim/logging.h"

namespace memento {

BuddyAllocator::BuddyAllocator(Addr base, std::uint64_t size_bytes,
                               StatRegistry &stats)
    : base_(base),
      totalPages_(size_bytes / kPageSize),
      freeLists_(kMaxOrder + 1),
      frontier_(base),
      allocCalls_(stats.counter("buddy.alloc_calls")),
      freeCalls_(stats.counter("buddy.free_calls")),
      splits_(stats.counter("buddy.splits")),
      coalesces_(stats.counter("buddy.coalesces")),
      peakPages_(stats.counter("buddy.peak_pages"))
{
    panic_if(base % kPageSize != 0, "buddy: unaligned base");
    panic_if(base == kNullAddr, "buddy: a block at 0 reads as exhaustion");
    const std::uint64_t max_block_pages = 1ull << kMaxOrder;
    panic_if(totalPages_ == 0 || totalPages_ % max_block_pages != 0,
             "buddy: size must be a multiple of the max block size");
}

Addr
BuddyAllocator::end() const
{
    return base_ + totalPages_ * kPageSize;
}

Addr
BuddyAllocator::buddyOf(Addr addr, unsigned order) const
{
    const std::uint64_t block_bytes = kPageSize << order;
    return base_ + (((addr - base_) ^ block_bytes));
}

Addr
BuddyAllocator::allocate(unsigned order)
{
    panic_if(order > kMaxOrder, "buddy: order too large");
    ++allocCalls_;

    // Find the smallest available order >= requested.
    unsigned avail = order;
    while (avail < kMaxOrder && freeLists_[avail].empty())
        ++avail;

    Addr block;
    if (!freeLists_[avail].empty()) {
        block = *freeLists_[avail].begin();
        freeLists_[avail].erase(freeLists_[avail].begin());
    } else if (frontier_ != end()) {
        block = frontier_; // A never-split max-order block.
        frontier_ += kPageSize << kMaxOrder;
    } else {
        return kNullAddr;
    }

    // Split down to the requested order, returning upper halves.
    while (avail > order) {
        --avail;
        ++splits_;
        const Addr upper = block + (kPageSize << avail);
        freeLists_[avail].insert(upper);
    }

    liveBlocks_.insert(block, static_cast<std::uint8_t>(order));
    allocatedPages_ += 1ull << order;
    peakPages_.raiseTo(allocatedPages_);
    return block;
}

void
BuddyAllocator::free(Addr addr, unsigned order)
{
    ++freeCalls_;
    const std::optional<std::uint8_t> live = liveBlocks_.take(addr);
    panic_if(!live, "buddy: free of unallocated block 0x", std::hex, addr);
    panic_if(*live != order, "buddy: free order mismatch");
    allocatedPages_ -= 1ull << order;

    // Coalesce with free buddies while possible.
    Addr block = addr;
    while (order < kMaxOrder) {
        const Addr buddy = buddyOf(block, order);
        auto buddy_it = freeLists_[order].find(buddy);
        if (buddy_it == freeLists_[order].end())
            break;
        freeLists_[order].erase(buddy_it);
        ++coalesces_;
        block = block < buddy ? block : buddy;
        ++order;
    }
    freeLists_[order].insert(block);
}

bool
BuddyAllocator::checkInvariants() const
{
    std::vector<std::string> violations;
    return checkIntegrity(violations);
}

bool
BuddyAllocator::checkIntegrity(std::vector<std::string> &violations) const
{
    const std::size_t before = violations.size();
    if ((frontier_ - base_) % (kPageSize << kMaxOrder) != 0 ||
        frontier_ > end()) {
        std::ostringstream os;
        os << "buddy: frontier 0x" << std::hex << frontier_
           << " is not a max-order block boundary in range";
        violations.push_back(os.str());
    }
    // Every never-split block above the frontier is free.
    std::uint64_t free_pages =
        frontier_ < end() ? (end() - frontier_) / kPageSize : 0;
    for (unsigned order = 0; order <= kMaxOrder; ++order) {
        for (Addr block : freeLists_[order]) {
            if ((block - base_) % (kPageSize << order) != 0) {
                std::ostringstream os;
                os << "buddy: misaligned order-" << order
                   << " free block 0x" << std::hex << block;
                violations.push_back(os.str());
            }
            if (block >= frontier_) {
                std::ostringstream os;
                os << "buddy: order-" << order << " free block 0x"
                   << std::hex << block << " lies above the frontier";
                violations.push_back(os.str());
            }
            // A free block must not intersect a live allocation.
            if (ownsLivePage(block)) {
                std::ostringstream os;
                os << "buddy: block 0x" << std::hex << block
                   << " is both free and live";
                violations.push_back(os.str());
            }
            free_pages += 1ull << order;
        }
    }
    std::uint64_t live_pages = 0;
    Addr highest_live = kNullAddr;
    liveBlocks_.forEach([&](Addr addr, std::uint8_t order) {
        live_pages += 1ull << order;
        highest_live = std::max(highest_live, addr);
    });
    if (!liveBlocks_.empty() && highest_live >= frontier_) {
        std::ostringstream os;
        os << "buddy: live block 0x" << std::hex << highest_live
           << " lies above the frontier";
        violations.push_back(os.str());
    }
    if (live_pages != allocatedPages_) {
        std::ostringstream os;
        os << "buddy: live-block pages (" << live_pages
           << ") != allocated-page count (" << allocatedPages_ << ")";
        violations.push_back(os.str());
    }
    if (free_pages + live_pages != totalPages_) {
        std::ostringstream os;
        os << "buddy: page conservation broken: free (" << free_pages
           << ") + live (" << live_pages << ") != total (" << totalPages_
           << ")";
        violations.push_back(os.str());
    }
    return violations.size() == before;
}

bool
BuddyAllocator::ownsLivePage(Addr paddr) const
{
    if (paddr < base_ || paddr >= end())
        return false;
    // A live block of order k holding paddr starts at paddr rounded
    // down to 2^k pages.
    for (unsigned order = 0; order <= kMaxOrder; ++order) {
        const Addr block =
            base_ + ((paddr - base_) & ~((kPageSize << order) - 1));
        const std::uint8_t *live = liveBlocks_.find(block);
        if (live && *live == order)
            return true;
    }
    return false;
}

} // namespace memento
