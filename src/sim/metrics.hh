/**
 * @file
 * The cross-layer metrics registry.
 *
 * Components record counters (monotone event counts), gauges
 * (last-value scalars) and fixed-bucket latency histograms under
 * dotted names ("pipeline.batch_latency_ms").  The registry owns the
 * instruments and exports them as JSON (the canonical run
 * fingerprint) or a Prometheus-style text dump.
 *
 * Instrumentation is attach-based: components hold a nullable
 * MetricsRegistry pointer and skip all recording when it is null, so
 * an un-instrumented run does no observability work at all — and
 * because every instrument is *read-only* with respect to the timing
 * models, an instrumented run is bit-identical to an un-instrumented
 * one (enforced by test).
 *
 * Iteration order is name-sorted (std::map), so two registries fed
 * the same samples dump byte-identical output regardless of
 * registration order.
 *
 * Namespacing: a registry can also be constructed as a *scoped view*
 * onto another registry — every instrument name is prepended with a
 * fixed prefix and the sample lands in the parent.  Multi-tenant
 * layers hand each tenant's subsystems a "tenant.<name>."-scoped view
 * of the one export registry (and ecssd-sim its serving pass a
 * "serve." view), so the components themselves stay namespace-blind
 * and every device's counters keep to their own names.
 */

#ifndef ECSSD_SIM_METRICS_HH
#define ECSSD_SIM_METRICS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "stats.hh"

namespace ecssd
{
namespace sim
{

/** The registry of named counters, gauges and histograms. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    /**
     * A scoped view: instrument lookups and samples forward to
     * @p parent with @p prefix prepended to every name ("tenant.a."
     * turns "pipeline.batches" into "tenant.a.pipeline.batches").
     * The view owns no instruments; @p parent must outlive it.
     * Views may nest (prefixes concatenate).
     */
    MetricsRegistry(MetricsRegistry &parent, std::string prefix)
        : parent_(&parent), prefix_(std::move(prefix))
    {
    }

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Master switch: while disabled, the instruments still exist but
     * counterAdd/gaugeSet/histogramSample become no-ops.  Attaching no
     * registry at all is the truly free path.  On a scoped view the
     * switch is the parent's.
     */
    void setEnabled(bool enabled) { root().enabled_ = enabled; }
    bool enabled() const { return root().enabled_; }

    /** True when this registry is a scoped view onto another. */
    bool scoped() const { return parent_ != nullptr; }

    /** The name prefix of this view ("" on a root registry). */
    const std::string &prefix() const { return prefix_; }

    /** Look up (creating on first use) a counter. */
    Counter &counter(const std::string &name);

    /** Look up (creating on first use) a gauge. */
    Scalar &gauge(const std::string &name);

    /**
     * Look up (creating on first use) a fixed-bucket histogram over
     * [lo, hi).  The shape is set on first creation; later lookups
     * ignore the shape arguments (and must agree, panic otherwise).
     */
    Histogram &histogram(const std::string &name, double lo, double hi,
                         std::size_t buckets);

    // --- Convenience recording (honors the enabled switch) --------
    void counterAdd(const std::string &name, std::uint64_t n = 1);
    void gaugeSet(const std::string &name, double v);
    void histogramSample(const std::string &name, double lo, double hi,
                         std::size_t buckets, double v);

    /** True when @p name exists (any instrument kind); a view asks
     *  its root about the *prefixed* name. */
    bool has(const std::string &name) const;

    std::size_t size() const
    {
        const MetricsRegistry &r = root();
        return r.counters_.size() + r.gauges_.size()
            + r.histograms_.size();
    }

    /** Zero every instrument (registrations survive). */
    void reset();

    /**
     * Dump everything as one JSON object:
     *   {"counters": {...}, "gauges": {...}, "histograms": {...}}
     * Histograms expand to count/sum/min/max/p50/p95/p99/p999.
     * Deterministic: name-sorted, %.17g numbers.
     */
    void writeJson(std::ostream &os) const;

    /**
     * Prometheus-style text exposition: one "# TYPE" line per
     * instrument, '.' mapped to '_' in names, histograms emitted as
     * cumulative _bucket{le=...} series plus _sum/_count.
     */
    void writePrometheus(std::ostream &os) const;

  private:
    /** The registry that actually stores the instruments. */
    MetricsRegistry &
    root()
    {
        MetricsRegistry *r = this;
        while (r->parent_)
            r = r->parent_;
        return *r;
    }

    const MetricsRegistry &
    root() const
    {
        const MetricsRegistry *r = this;
        while (r->parent_)
            r = r->parent_;
        return *r;
    }

    /** Non-null when this registry is a scoped view. */
    MetricsRegistry *parent_ = nullptr;
    /** Name prefix a view prepends before forwarding. */
    std::string prefix_;
    bool enabled_ = true;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Scalar> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace sim
} // namespace ecssd

#endif // ECSSD_SIM_METRICS_HH
