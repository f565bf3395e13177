#include "sim/json.h"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "sim/logging.h"

namespace memento {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char *hex = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::newlineIndent()
{
    os_ << '\n';
    for (std::size_t i = 0; i < frames_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::beforeValue()
{
    if (frames_.empty()) {
        panic_if(wroteRoot_ && !keyPending_,
                 "json: second root value in one document");
        return;
    }
    if (keyPending_)
        return; // key() already positioned us.
    panic_if(frames_.back() == Frame::Object,
             "json: value inside an object requires a key");
    if (frameHasElems_.back())
        os_ << ',';
    frameHasElems_.back() = true;
    newlineIndent();
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    panic_if(frames_.empty() || frames_.back() != Frame::Object,
             "json: key outside an object");
    panic_if(keyPending_, "json: key after key");
    if (frameHasElems_.back())
        os_ << ',';
    frameHasElems_.back() = true;
    newlineIndent();
    os_ << '"' << jsonEscape(k) << "\": ";
    keyPending_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    keyPending_ = false;
    os_ << '{';
    frames_.push_back(Frame::Object);
    frameHasElems_.push_back(false);
    wroteRoot_ = true;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    panic_if(frames_.empty() || frames_.back() != Frame::Object,
             "json: endObject without beginObject");
    panic_if(keyPending_, "json: endObject with a dangling key");
    const bool had = frameHasElems_.back();
    frames_.pop_back();
    frameHasElems_.pop_back();
    if (had) {
        newlineIndent();
    }
    os_ << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    keyPending_ = false;
    os_ << '[';
    frames_.push_back(Frame::Array);
    frameHasElems_.push_back(false);
    wroteRoot_ = true;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    panic_if(frames_.empty() || frames_.back() != Frame::Array,
             "json: endArray without beginArray");
    const bool had = frameHasElems_.back();
    frames_.pop_back();
    frameHasElems_.pop_back();
    if (had) {
        newlineIndent();
    }
    os_ << ']';
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    beforeValue();
    keyPending_ = false;
    os_ << '"' << jsonEscape(v) << '"';
    wroteRoot_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    keyPending_ = false;
    os_ << v;
    wroteRoot_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    beforeValue();
    keyPending_ = false;
    os_ << v;
    wroteRoot_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    beforeValue();
    keyPending_ = false;
    if (!std::isfinite(v)) {
        os_ << "null";
    } else {
        // Locale-independent, stable across platforms.
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.12g", v);
        os_ << buf;
    }
    wroteRoot_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    beforeValue();
    keyPending_ = false;
    os_ << (v ? "true" : "false");
    wroteRoot_ = true;
    return *this;
}

JsonWriter &
JsonWriter::valueNull()
{
    beforeValue();
    keyPending_ = false;
    os_ << "null";
    wroteRoot_ = true;
    return *this;
}

void
writeSchemaHeader(JsonWriter &w, std::string_view kind)
{
    w.member("schema_version", kJsonSchemaVersion);
    w.member("kind", kind);
}

} // namespace memento
