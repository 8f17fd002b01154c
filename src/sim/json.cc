#include "json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

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

namespace
{

/** Recursive-descent cursor over the JSON text. */
struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::map<std::string, double> out;

    [[noreturn]] void
    fail(const char *what)
    {
        fatal("malformed JSON at offset ", pos, ": ", what);
    }

    void
    skipWs()
    {
        while (pos < text.size()
               && std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string s;
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c == '\\') {
                if (pos >= text.size())
                    fail("dangling escape");
                const char esc = text[pos++];
                switch (esc) {
                  case 'n':
                    c = '\n';
                    break;
                  case 't':
                    c = '\t';
                    break;
                  case 'r':
                    c = '\r';
                    break;
                  case 'u':
                    // Flat numeric view: keep the raw digits.
                    if (pos + 4 > text.size())
                        fail("short \\u escape");
                    s += "\\u" + text.substr(pos, 4);
                    pos += 4;
                    continue;
                  default:
                    c = esc;
                }
            }
            s += c;
        }
        if (pos >= text.size())
            fail("unterminated string");
        ++pos; // closing quote
        return s;
    }

    void
    parseValue(const std::string &prefix)
    {
        const char c = peek();
        if (c == '{') {
            ++pos;
            if (peek() == '}') {
                ++pos;
                return;
            }
            while (true) {
                const std::string name = parseString();
                expect(':');
                parseValue(prefix.empty() ? name
                                          : prefix + "." + name);
                const char sep = peek();
                if (sep == ',') {
                    ++pos;
                    continue;
                }
                expect('}');
                break;
            }
        } else if (c == '[') {
            ++pos;
            if (peek() == ']') {
                ++pos;
                return;
            }
            for (std::uint64_t index = 0;; ++index) {
                parseValue(prefix + "." + std::to_string(index));
                const char sep = peek();
                if (sep == ',') {
                    ++pos;
                    continue;
                }
                expect(']');
                break;
            }
        } else if (c == '"') {
            parseString(); // non-numeric leaf: dropped
        } else if (c == 't') {
            literal("true");
        } else if (c == 'f') {
            literal("false");
        } else if (c == 'n') {
            literal("null");
        } else {
            char *end = nullptr;
            const double v =
                std::strtod(text.c_str() + pos, &end);
            if (end == text.c_str() + pos)
                fail("expected a value");
            pos = static_cast<std::size_t>(end - text.c_str());
            out[prefix.empty() ? "value" : prefix] = v;
        }
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos >= text.size() || text[pos] != *p)
                fail("bad literal");
            ++pos;
        }
    }
};

} // namespace

std::map<std::string, double>
parseFlatJson(const std::string &text)
{
    Parser parser{text, 0, {}};
    parser.parseValue("");
    parser.skipWs();
    if (parser.pos != text.size())
        parser.fail("trailing characters");
    return std::move(parser.out);
}

} // namespace sim
} // namespace ecssd
