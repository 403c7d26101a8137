/**
 * @file
 * In-memory span log for the traced benchmark run.
 *
 * A span is one timed interval at a layer boundary: a name, a layer, a
 * start and an end (steady-clock ns), the span that contains it, and
 * the app run it belongs to (all spans of one app run share `run`;
 * the run's root span has `parent == 0`).  Spans are recorded from
 * the benchmark's own code around calls into the program, kept in
 * memory, and written out at the end as a Chrome trace.
 *
 * Each thread records into its own SpanRecorder; ids come from one
 * shared counter so they stay unique after the recorders are merged.
 */
#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/** The layer a span's self time is charged to. */
enum class Layer : uint8_t { App, Driver, Core, Tools, Sim, Workloads };

inline const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::App: return "app";
      case Layer::Driver: return "driver";
      case Layer::Core: return "core";
      case Layer::Tools: return "tools";
      case Layer::Sim: return "sim";
      case Layer::Workloads: return "workloads";
    }
    return "?";
}

constexpr size_t kNumLayers = 6;

struct Span {
    uint32_t id = 0;
    uint32_t parent = 0; ///< 0 = root of its app run
    uint32_t run = 0;    ///< app-run id shared by every span of the run
    uint32_t tid = 0;    ///< recording thread (Chrome-trace track)
    Layer layer = Layer::App;
    const char *name = ""; ///< static storage only
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t bytes = 0; ///< payload size for memory-transfer calls

    uint64_t dur() const { return end_ns - start_ns; }
};

/** Source of span ids, shared by every recorder of a run. */
inline std::atomic<uint32_t> g_next_span_id{1};

/**
 * One thread's span buffer with a stack of open spans, so a span
 * begun while another is open becomes its child.
 */
class SpanRecorder
{
  public:
    SpanRecorder(uint32_t run, uint32_t tid) : run_(run), tid_(tid) {}

    /** Open a span under the innermost open span; @return its index. */
    size_t
    begin(const char *name, Layer layer, uint64_t t)
    {
        Span s;
        s.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
        s.parent = open_.empty() ? parent_ : spans_[open_.back()].id;
        s.run = run_;
        s.tid = tid_;
        s.layer = layer;
        s.name = name;
        s.start_ns = t;
        spans_.push_back(s);
        open_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    /** Close the innermost open span at @p t. */
    void
    end(uint64_t t)
    {
        spans_[open_.back()].end_ns = t;
        open_.pop_back();
    }

    /** Add a closed leaf span under the innermost open span. */
    void
    leaf(const char *name, Layer layer, uint64_t t0, uint64_t t1)
    {
        begin(name, layer, t0);
        end(t1);
    }

    /** Parent id for top-level spans (a span of another recorder). */
    void setRootParent(uint32_t id) { parent_ = id; }

    Span &at(size_t idx) { return spans_[idx]; }
    size_t depth() const { return open_.size(); }
    std::vector<Span> &spans() { return spans_; }

  private:
    uint32_t run_;
    uint32_t tid_;
    uint32_t parent_ = 0;
    std::vector<Span> spans_;
    std::vector<size_t> open_;
};

/** Self time per layer and the coverage of app bodies by spans. */
struct SpanSummary {
    uint64_t self_ns[kNumLayers] = {};
    /** Summed duration of workload-layer spans (app bodies, clients). */
    uint64_t body_ns = 0;
    /** Part of body_ns covered by child spans (driver calls). */
    uint64_t body_covered_ns = 0;
};

/**
 * A span's self time is its duration minus the time its children
 * cover.  Children of one parent may overlap only when recorded on
 * different threads (tenant clients under one app root), so the
 * subtraction is clamped at zero.
 */
inline SpanSummary
summarize(const std::vector<Span> &spans)
{
    std::unordered_map<uint32_t, uint64_t> child_ns;
    for (const Span &s : spans)
        if (s.parent != 0)
            child_ns[s.parent] += s.dur();
    SpanSummary out;
    for (const Span &s : spans) {
        uint64_t c = 0;
        if (auto it = child_ns.find(s.id); it != child_ns.end())
            c = std::min(it->second, s.dur());
        out.self_ns[static_cast<size_t>(s.layer)] += s.dur() - c;
        if (s.layer == Layer::Workloads) {
            out.body_ns += s.dur();
            out.body_covered_ns += c;
        }
    }
    return out;
}

/**
 * Write @p spans as a Chrome trace ("X" complete events, µs
 * timestamps relative to the first span).  Each event carries its
 * id, parent, run and layer in `args` so the nesting can be checked
 * from the file alone.  @return false if the file cannot be written.
 */
inline bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    uint64_t t0 = UINT64_MAX;
    for (const Span &s : spans)
        t0 = std::min(t0, s.start_ns);
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%s\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, "
                     "\"parent\": %u, \"run\": %u, \"start_ns\": %llu, "
                     "\"end_ns\": %llu, \"bytes\": %llu}}",
                     i ? "," : "", s.name, layerName(s.layer), s.tid,
                     static_cast<double>(s.start_ns - t0) / 1e3,
                     static_cast<double>(s.dur()) / 1e3, s.id, s.parent,
                     s.run, static_cast<unsigned long long>(s.start_ns - t0),
                     static_cast<unsigned long long>(s.end_ns - t0),
                     static_cast<unsigned long long>(s.bytes));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
