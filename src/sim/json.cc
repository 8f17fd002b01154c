#include "json.hh"

#include <cmath>
#include <cstdio>

#include "logging.hh"

namespace ecssd
{
namespace sim
{

std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    ECSSD_ASSERT(std::isfinite(v), "non-finite value in JSON output");
    // %.17g round-trips every double exactly and is deterministic
    // across platforms with IEEE-correct printf.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
JsonWriter::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (!firstInScope_.empty()) {
        if (!firstInScope_.back())
            os_ << ",";
        firstInScope_.back() = false;
        os_ << "\n";
        indent();
    }
}

void
JsonWriter::indent()
{
    for (std::size_t i = 0; i < firstInScope_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::beginObject()
{
    separate();
    os_ << "{";
    firstInScope_.push_back(true);
}

void
JsonWriter::endObject()
{
    ECSSD_ASSERT(!firstInScope_.empty(), "endObject with no scope");
    const bool empty = firstInScope_.back();
    firstInScope_.pop_back();
    if (!empty) {
        os_ << "\n";
        indent();
    }
    os_ << "}";
    if (firstInScope_.empty())
        os_ << "\n";
}

void
JsonWriter::beginArray()
{
    separate();
    os_ << "[";
    firstInScope_.push_back(true);
}

void
JsonWriter::endArray()
{
    ECSSD_ASSERT(!firstInScope_.empty(), "endArray with no scope");
    const bool empty = firstInScope_.back();
    firstInScope_.pop_back();
    if (!empty) {
        os_ << "\n";
        indent();
    }
    os_ << "]";
    if (firstInScope_.empty())
        os_ << "\n";
}

void
JsonWriter::key(const std::string &name)
{
    separate();
    os_ << "\"" << jsonEscape(name) << "\": ";
    afterKey_ = true;
}

void
JsonWriter::value(double v)
{
    separate();
    os_ << jsonNumber(v);
}

void
JsonWriter::value(std::uint64_t v)
{
    separate();
    os_ << v;
}

void
JsonWriter::value(std::int64_t v)
{
    separate();
    os_ << v;
}

void
JsonWriter::value(bool v)
{
    separate();
    os_ << (v ? "true" : "false");
}

void
JsonWriter::value(const std::string &v)
{
    separate();
    os_ << "\"" << jsonEscape(v) << "\"";
}

void
JsonWriter::value(const char *v)
{
    value(std::string(v));
}

} // namespace sim
} // namespace ecssd
