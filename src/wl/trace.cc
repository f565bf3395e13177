#include "wl/trace.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "sim/error.h"
#include "sim/logging.h"

namespace memento {
namespace {

const char *
opName(OpKind kind)
{
    switch (kind) {
      case OpKind::Compute: return "C";
      case OpKind::Load: return "L";
      case OpKind::Store: return "S";
      case OpKind::Malloc: return "M";
      case OpKind::Free: return "F";
      case OpKind::StaticLoad: return "l";
      case OpKind::StaticStore: return "s";
      case OpKind::FunctionEnd: return "E";
    }
    panic("bad op kind");
}

bool
opFromName(const std::string &name, OpKind &kind)
{
    if (name == "C") kind = OpKind::Compute;
    else if (name == "L") kind = OpKind::Load;
    else if (name == "S") kind = OpKind::Store;
    else if (name == "M") kind = OpKind::Malloc;
    else if (name == "F") kind = OpKind::Free;
    else if (name == "l") kind = OpKind::StaticLoad;
    else if (name == "s") kind = OpKind::StaticStore;
    else if (name == "E") kind = OpKind::FunctionEnd;
    else return false;
    return true;
}

/**
 * Parse one unsigned decimal field. A sign, trailing characters, or a
 * value above kTraceFieldMax fail the parse: nothing is truncated.
 */
bool
fieldFromText(const std::string &text, std::uint32_t &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace

void
writeTrace(const Trace &trace, std::ostream &os)
{
    for (const TraceOp &op : trace) {
        os << opName(op.kind) << ' ' << op.value << ' ' << op.objId << ' '
           << op.offset << '\n';
    }
}

Trace
readTraceOps(std::istream &is)
{
    Trace trace;
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name, value, obj_id, offset;
        TraceOp op;
        ls >> name >> value >> obj_id >> offset;
        const bool parsed = !ls.fail() && opFromName(name, op.kind) &&
                            fieldFromText(value, op.value) &&
                            fieldFromText(obj_id, op.objId) &&
                            fieldFromText(offset, op.offset);
        // Nothing is dropped silently: a Trace stores only the fields
        // the op's kind uses.
        if (!parsed || !unusedFieldsAreZero(op)) {
            throw SimError(
                ErrorCategory::Trace,
                detail::formatMsg("trace parse error at line ", line_no,
                                  parsed ? ": '" + name +
                                               "' sets a field it does "
                                               "not use"
                                         : std::string()),
                line_no);
        }
        trace.push_back(op);
    }
    return trace;
}

Trace
readTrace(std::istream &is)
{
    Trace trace = readTraceOps(is);
    // Serialized traces record complete invocations; a missing
    // FunctionEnd terminator means the file was truncated.
    sim_error_if(trace.empty() ||
                     trace.back().kind != OpKind::FunctionEnd,
                 ErrorCategory::Trace,
                 "trace truncated: missing FunctionEnd terminator after ",
                 trace.size(), " ops");
    return trace;
}

std::uint64_t
countOps(const Trace &trace, OpKind kind)
{
    std::uint64_t n = 0;
    for (const TraceOp &op : trace) {
        if (op.kind == kind)
            ++n;
    }
    return n;
}

} // namespace memento
