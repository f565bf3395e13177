#include "mem/dram.h"

namespace memento {

Dram::Dram(const DramConfig &cfg, StatRegistry &stats)
    : cfg_(cfg),
      banks_(cfg.banks),
      bankModConstant_(fastModConstant(cfg.banks)),
      reads_(stats.counter("dram.reads")),
      writes_(stats.counter("dram.writes")),
      rowHits_(stats.counter("dram.row_hits")),
      rowMisses_(stats.counter("dram.row_misses")),
      bytes_(stats.counter("dram.bytes"))
{
}

Cycles
Dram::access(Addr paddr, bool is_write, Cycles now)
{
    // Interleave lines across banks, rows within a bank are contiguous.
    // Neither index divides: any bank count reduces by fastMod().
    const std::uint64_t line = paddr >> kLineShift;
    Bank &bank = banks_[fastMod(line, bankModConstant_, banks_.size())];
    const std::uint64_t row = paddr >> kRowShift;

    Cycles latency;
    if (bank.openRow == row) {
        latency = cfg_.hitLatency;
        ++rowHits_;
    } else {
        latency = cfg_.missLatency;
        ++rowMisses_;
        bank.openRow = row;
    }

    // Queue behind an in-flight access to the same bank.
    if (bank.busyUntil > now)
        latency += kBankBusyPenalty;
    bank.busyUntil = now + latency;

    bytes_ += kLineSize;
    if (is_write) {
        ++writes_;
        return 0; // Writebacks are posted; not on the critical path.
    }
    ++reads_;
    return latency;
}

std::uint64_t
Dram::totalBytes() const
{
    return bytes_.value();
}

} // namespace memento
