/**
 * @file
 * Category-gated debug tracing, in the spirit of gem5's DPRINTF.
 *
 * Components emit trace lines under a named category; categories are
 * enabled programmatically or via the ECSSD_TRACE environment
 * variable (comma-separated list, e.g. ECSSD_TRACE=ftl,pipeline).
 * Disabled categories cost one boolean test.
 */

#ifndef ECSSD_SIM_TRACE_HH
#define ECSSD_SIM_TRACE_HH

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "logging.hh"
#include "types.hh"

namespace ecssd
{
namespace sim
{

/** Trace categories, one bit each: one per component that emits
 *  ECSSD_TRACE_LOG lines. */
enum class TraceCategory : unsigned
{
    Ftl = 1u << 0,
    Pipeline = 1u << 1,
};

/** Enable/disable one category at runtime. */
void setTraceEnabled(TraceCategory category, bool enabled);

/** True when the category is enabled. */
bool traceEnabled(TraceCategory category);

/** Enable a comma-separated category list ("ftl,pipeline,all").
 *  An unknown name dies fatally (sim::FatalError) and enables
 *  nothing. */
void enableTraceCategories(const std::string &list);

/** Apply the ECSSD_TRACE environment variable (idempotent); its
 *  names are checked like enableTraceCategories()'. */
void initTraceFromEnvironment();

/** Emit one trace line (internal; use ECSSD_TRACE_LOG). */
void traceLine(TraceCategory category, Tick when,
               const std::string &message);

/** Category name for the trace prefix. */
const char *traceCategoryName(TraceCategory category);

/**
 * Emit a trace line when the category is enabled.
 *
 * @param category A TraceCategory value.
 * @param when Current simulated tick.
 * @param ... Stream-style message parts.
 */
#define ECSSD_TRACE_LOG(category, when, ...)                          \
    do {                                                              \
        if (::ecssd::sim::traceEnabled(category)) {                   \
            ::ecssd::sim::traceLine(                                  \
                category, when,                                       \
                ::ecssd::sim::detail::format(__VA_ARGS__));           \
        }                                                             \
    } while (0)

// ---------------------------------------------------------------------
// Hierarchical span tracing
// ---------------------------------------------------------------------

/** Identifier of one span (1-based begin order; 0 = none). */
using SpanId = std::uint64_t;

/** One completed span: a named interval of simulated time. */
struct SpanRecord
{
    /** Begin-order id (1-based). */
    std::uint64_t id = 0;
    /** Id of the enclosing span; 0 for top-level spans. */
    std::uint64_t parent = 0;
    std::string name;
    /** Nesting depth; 0 = top-level. */
    unsigned depth = 0;
    sim::Tick start = 0;
    sim::Tick end = 0;

    sim::Tick duration() const { return end - start; }
};

/**
 * Records begin/end spans keyed on the simulated clock.
 *
 * Spans nest by call order (a child must end before its parent), which
 * mirrors how the pipeline drives the timing models; sibling spans may
 * still overlap in *simulated* time, e.g. the INT4 stage of tile t+1
 * against the FP32 stage of tile t.  Mismatched ends and
 * backwards-running spans are simulator bugs and panic.
 *
 * The tracer keeps at most @c maxSpans completed records (deeply
 * instrumented runs would otherwise grow without bound); spans beyond
 * the cap are counted in droppedSpans() but not stored.  All state is
 * deterministic: two identical runs produce byte-identical dumps.
 */
class SpanTracer
{
  public:
    using SpanId = sim::SpanId;

    explicit SpanTracer(std::size_t max_spans = 1u << 16)
        : maxSpans_(max_spans)
    {}

    /** Open a span at simulated tick @p at; returns its id.  The
     *  recorded name is namePrefix() + @p name. */
    SpanId begin(const std::string &name, Tick at);

    /**
     * Namespace prefix prepended to every span name recorded while it
     * is set ("tenant.a." turns "pipeline.batch" into
     * "tenant.a.pipeline.batch").  Multi-tenant layers set it around
     * each tenant-scoped call; the empty default records names
     * unchanged, keeping single-tenant dumps byte-identical.
     */
    void setNamePrefix(std::string prefix)
    {
        namePrefix_ = std::move(prefix);
    }

    const std::string &namePrefix() const { return namePrefix_; }

    /**
     * Close span @p id at tick @p at.  @p id must be the innermost
     * open span (panic otherwise), and @p at must not precede its
     * begin tick.
     */
    void end(SpanId id, Tick at);

    /** Spans currently open. */
    std::size_t openSpans() const { return stack_.size(); }

    /** Completed spans retained (capped at maxSpans). */
    const std::vector<SpanRecord> &records() const { return records_; }

    /** Completed spans discarded because the cap was reached. */
    std::uint64_t droppedSpans() const { return dropped_; }

    /** Drop all records and any open spans. */
    void reset();

    /**
     * Dump the completed spans as a JSON array (deterministic:
     * completion order, fixed field order).
     */
    void writeJson(std::ostream &os) const;

  private:
    struct OpenSpan
    {
        SpanId id;
        SpanId parent;
        std::string name;
        Tick start;
    };

    std::size_t maxSpans_;
    /** Namespace prefix applied by begin() ("" = names unchanged). */
    std::string namePrefix_;
    SpanId nextId_ = 1;
    std::vector<OpenSpan> stack_;
    std::vector<SpanRecord> records_;
    std::uint64_t dropped_ = 0;
};

/**
 * RAII span-name prefix for one tenant's device-side work: every span
 * opened while the scope is alive carries the tenant namespace.  A
 * null tracer or an empty prefix (the default tenant) touches
 * nothing, so single-tenant span dumps stay byte-identical.
 */
class SpanPrefixScope
{
  public:
    SpanPrefixScope(SpanTracer *tracer, const std::string &prefix)
        : tracer_(prefix.empty() ? nullptr : tracer)
    {
        if (tracer_) {
            saved_ = tracer_->namePrefix();
            tracer_->setNamePrefix(prefix);
        }
    }

    ~SpanPrefixScope()
    {
        if (tracer_)
            tracer_->setNamePrefix(saved_);
    }

    SpanPrefixScope(const SpanPrefixScope &) = delete;
    SpanPrefixScope &operator=(const SpanPrefixScope &) = delete;

  private:
    SpanTracer *tracer_;
    std::string saved_;
};

/**
 * RAII helper for span emission in instrumented code.  A null tracer
 * makes the whole object a no-op, which is the zero-cost-when-disabled
 * path.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanTracer *tracer, const char *name, Tick at)
        : tracer_(tracer)
    {
        if (tracer_)
            id_ = tracer_->begin(name, at);
    }

    /** Close the span at simulated tick @p at (idempotent). */
    void
    close(Tick at)
    {
        if (tracer_) {
            tracer_->end(id_, at);
            tracer_ = nullptr;
        }
    }

    // A span left open is visible through SpanTracer::openSpans();
    // the destructor stays lenient so unwinding after a panic in an
    // instrumented region cannot cascade into std::terminate.
    ~ScopedSpan() = default;

  private:
    SpanTracer *tracer_;
    SpanTracer::SpanId id_ = 0;
};

} // namespace sim
} // namespace ecssd

#endif // ECSSD_SIM_TRACE_HH
