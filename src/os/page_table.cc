#include "os/page_table.h"

#include <map>

#include "sim/logging.h"

namespace memento {

/** One radix node: a physical frame holding 512 entries. */
struct PageTable::Node
{
    explicit Node(Addr phys_base) : phys(phys_base) {}

    Addr phys;
    /** Interior children (levels 0..2), keyed by entry index. */
    std::map<unsigned, std::unique_ptr<Node>> children;
    /** Leaf mappings (level 3), entry index -> physical page. */
    std::map<unsigned, Addr> leaves;

    bool empty() const { return children.empty() && leaves.empty(); }

    /** Physical address of the PTE slot @p idx within this node. */
    Addr pteAddr(unsigned idx) const { return phys + idx * 8ull; }
};

PageTable::PageTable(FrameSource &frames) : frames_(frames)
{
    Addr root_frame = frames_.allocFrame();
    panic_if(root_frame == kNullAddr, "page table: no frame for root");
    root_ = std::make_unique<Node>(root_frame);
    nodePages_ = 1;
}

PageTable::~PageTable()
{
    // Return every node frame. Post-order via recursion on children.
    std::function<void(Node &)> release = [&](Node &node) {
        for (auto &[idx, child] : node.children)
            release(*child);
        frames_.freeFrame(node.phys);
    };
    release(*root_);
}

unsigned
PageTable::levelIndex(Addr vaddr, unsigned level)
{
    // Level 0 uses bits [47:39], level 3 (leaf) uses [20:12].
    const unsigned shift =
        kPageShift + kBitsPerLevel * (kLevels - 1 - level);
    return (vaddr >> shift) & (kEntriesPerNode - 1);
}

PageTable::Node *
PageTable::ensureChild(Node &parent, unsigned idx)
{
    auto it = parent.children.find(idx);
    if (it != parent.children.end())
        return it->second.get();
    Addr frame = frames_.allocFrame();
    if (frame == kNullAddr)
        return nullptr;
    auto node = std::make_unique<Node>(frame);
    Node *raw = node.get();
    parent.children.emplace(idx, std::move(node));
    ++nodePages_;
    return raw;
}

unsigned
PageTable::map(Addr vaddr, Addr ppage)
{
    panic_if(ppage == kNullAddr, "page table: mapping to null frame");
    const std::uint64_t nodes_before = nodePages_;

    Node *node = root_.get();
    for (unsigned level = 0; level + 1 < kLevels; ++level) {
        node = ensureChild(*node, levelIndex(vaddr, level));
        panic_if(!node, "page table: out of node frames");
    }
    const unsigned leaf_idx = levelIndex(vaddr, kLevels - 1);
    panic_if(node->leaves.count(leaf_idx),
             "page table: double map of 0x", std::hex, vaddr);
    node->leaves[leaf_idx] = pageBase(ppage);
    ++mappedPages_;
    return static_cast<unsigned>(nodePages_ - nodes_before);
}

Addr
PageTable::unmap(Addr vaddr, unsigned &freed_nodes)
{
    freed_nodes = 0;

    // Record the path so empty nodes can be pruned bottom-up.
    Node *path[kLevels] = {};
    unsigned idx[kLevels] = {};
    Node *node = root_.get();
    for (unsigned level = 0; level + 1 < kLevels; ++level) {
        path[level] = node;
        idx[level] = levelIndex(vaddr, level);
        auto it = node->children.find(idx[level]);
        if (it == node->children.end())
            return kNullAddr;
        node = it->second.get();
    }
    path[kLevels - 1] = node;
    idx[kLevels - 1] = levelIndex(vaddr, kLevels - 1);

    auto leaf = node->leaves.find(idx[kLevels - 1]);
    if (leaf == node->leaves.end())
        return kNullAddr;
    const Addr ppage = leaf->second;
    node->leaves.erase(leaf);
    --mappedPages_;

    // Prune empty nodes (never the root).
    for (unsigned level = kLevels - 1; level > 0; --level) {
        Node *current = path[level];
        if (!current->empty())
            break;
        frames_.freeFrame(current->phys);
        path[level - 1]->children.erase(idx[level - 1]);
        --nodePages_;
        ++freed_nodes;
    }
    return ppage;
}

Addr
PageTable::translate(Addr vaddr) const
{
    const Node *node = root_.get();
    for (unsigned level = 0; level + 1 < kLevels; ++level) {
        auto it = node->children.find(levelIndex(vaddr, level));
        if (it == node->children.end())
            return kNullAddr;
        node = it->second.get();
    }
    auto leaf = node->leaves.find(levelIndex(vaddr, kLevels - 1));
    if (leaf == node->leaves.end())
        return kNullAddr;
    return leaf->second + (vaddr & (kPageSize - 1));
}

WalkResult
PageTable::walk(Addr vaddr) const
{
    WalkResult res;
    const Node *node = root_.get();
    for (unsigned level = 0; level < kLevels; ++level) {
        const unsigned idx = levelIndex(vaddr, level);
        res.visitedPtes.push_back(node->pteAddr(idx));
        if (level + 1 == kLevels) {
            auto leaf = node->leaves.find(idx);
            if (leaf == node->leaves.end())
                return res; // Invalid leaf: fault.
            res.valid = true;
            res.ppage = leaf->second;
            return res;
        }
        auto it = node->children.find(idx);
        if (it == node->children.end())
            return res; // Missing interior node: fault.
        node = it->second.get();
    }
    return res;
}

void
PageTable::forEachMapping(
    const std::function<void(Addr vpage, Addr ppage)> &fn) const
{
    // Children/leaves are std::maps, so recursion yields ascending VAs.
    std::function<void(const Node &, Addr, unsigned)> visit =
        [&](const Node &node, Addr va_prefix, unsigned level) {
            const unsigned shift =
                kPageShift + kBitsPerLevel * (kLevels - 1 - level);
            if (level + 1 == kLevels) {
                for (const auto &[idx, ppage] : node.leaves)
                    fn(va_prefix | (static_cast<Addr>(idx) << shift),
                       ppage);
                return;
            }
            for (const auto &[idx, child] : node.children)
                visit(*child,
                      va_prefix | (static_cast<Addr>(idx) << shift),
                      level + 1);
        };
    visit(*root_, 0, 0);
}

Addr
PageTable::rootPhys() const
{
    return root_->phys;
}

} // namespace memento
