/**
 * @file
 * Minimal JSON emission.
 *
 * The metrics-registry dump and the bench outputs need
 * deterministic, dependency-free JSON.  JsonWriter
 * emits objects/arrays with stable formatting (numbers via %.17g, so
 * round-trips are exact and a changed value is a changed line).
 */

#ifndef ECSSD_SIM_JSON_HH
#define ECSSD_SIM_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace ecssd
{
namespace sim
{

/** Escape @p raw for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &raw);

/** Format a double the way JsonWriter does (deterministic %.17g). */
std::string jsonNumber(double v);

/**
 * Streaming JSON writer with automatic comma/indent handling.
 *
 * Usage:
 *   JsonWriter w(os);
 *   w.beginObject();
 *   w.key("latency"); w.beginObject();
 *   w.key("p50_ms"); w.value(1.25);
 *   w.endObject();
 *   w.endObject();
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; must be followed by a value or container. */
    void key(const std::string &name);

    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(bool v);
    void value(const std::string &v);
    void value(const char *v);

  private:
    void separate();
    void indent();

    std::ostream &os_;
    /** true = first entry of the innermost container. */
    std::vector<bool> firstInScope_;
    bool afterKey_ = false;
};

} // namespace sim
} // namespace ecssd

#endif // ECSSD_SIM_JSON_HH
