#include "trace.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace ecssd
{
namespace sim
{

namespace
{

unsigned enabledMask = 0;
bool envApplied = false;

} // namespace

void
setTraceEnabled(TraceCategory category, bool enabled)
{
    if (enabled)
        enabledMask |= static_cast<unsigned>(category);
    else
        enabledMask &= ~static_cast<unsigned>(category);
}

bool
traceEnabled(TraceCategory category)
{
    return (enabledMask & static_cast<unsigned>(category)) != 0;
}

const char *
traceCategoryName(TraceCategory category)
{
    switch (category) {
      case TraceCategory::Ftl:
        return "ftl";
      case TraceCategory::Pipeline:
        return "pipeline";
    }
    return "unknown";
}

void
enableTraceCategories(const std::string &list)
{
    // Check every name before enabling any: a misspelt category dies
    // instead of leaving a run silently untraced.
    unsigned mask = 0;
    std::istringstream stream(list);
    std::string token;
    while (std::getline(stream, token, ',')) {
        if (token.empty())
            continue;
        if (token == "all") {
            mask = ~0u;
            continue;
        }
        bool matched = false;
        for (const TraceCategory category :
             {TraceCategory::Ftl, TraceCategory::Pipeline}) {
            if (token == traceCategoryName(category)) {
                mask |= static_cast<unsigned>(category);
                matched = true;
                break;
            }
        }
        if (!matched)
            fatal("unknown trace category '", token,
                  "' (known: ftl, pipeline, all)");
    }
    enabledMask |= mask;
}

void
initTraceFromEnvironment()
{
    if (envApplied)
        return;
    envApplied = true;
    if (const char *env = std::getenv("ECSSD_TRACE"))
        enableTraceCategories(env);
}

void
traceLine(TraceCategory category, Tick when,
          const std::string &message)
{
    std::fprintf(stderr, "%12.3f us  [%s] %s\n", tickToUs(when),
                 traceCategoryName(category), message.c_str());
}

SpanTracer::SpanId
SpanTracer::begin(const std::string &name, Tick at)
{
    const SpanId id = nextId_++;
    const SpanId parent = stack_.empty() ? 0 : stack_.back().id;
    stack_.push_back(OpenSpan{
        id, parent,
        namePrefix_.empty() ? name : namePrefix_ + name, at});
    return id;
}

void
SpanTracer::end(SpanId id, Tick at)
{
    ECSSD_ASSERT(!stack_.empty(),
                 "span end with no span open (id ", id, ")");
    const OpenSpan &top = stack_.back();
    ECSSD_ASSERT(top.id == id, "mismatched span end: innermost is '",
                 top.name, "' (id ", top.id, "), got id ", id);
    ECSSD_ASSERT(at >= top.start, "span '", top.name,
                 "' ends before it starts");
    if (records_.size() < maxSpans_) {
        SpanRecord record;
        record.id = top.id;
        record.parent = top.parent;
        record.name = top.name;
        record.depth = static_cast<unsigned>(stack_.size() - 1);
        record.start = top.start;
        record.end = at;
        records_.push_back(std::move(record));
    } else {
        ++dropped_;
    }
    stack_.pop_back();
}

void
SpanTracer::reset()
{
    nextId_ = 1;
    stack_.clear();
    records_.clear();
    dropped_ = 0;
}

void
SpanTracer::writeJson(std::ostream &os) const
{
    os << "[";
    bool first = true;
    for (const SpanRecord &record : records_) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  {\"id\": " << record.id
           << ", \"parent\": " << record.parent << ", \"name\": \""
           << record.name << "\", \"depth\": " << record.depth
           << ", \"start_ps\": " << record.start
           << ", \"end_ps\": " << record.end << "}";
    }
    os << "\n]\n";
}

} // namespace sim
} // namespace ecssd
