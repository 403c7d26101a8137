#include "obs/profile.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json.hpp"

namespace nvbit::obs {

namespace {

void
appendU64(std::string &out, uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

/** Frame label for an unresolved pc: "pc_0x<hex>". */
std::string
pcLabel(uint64_t pc)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "pc_0x%" PRIx64, pc);
    return buf;
}

/** The origin-resolver slot (leaked, like the sinks). */
struct OriginSlot {
    std::mutex mu; // leaf: held only to copy the resolver in or out
    OriginResolver resolver;
};

OriginSlot &
originSlot()
{
    static OriginSlot *slot = new OriginSlot();
    return *slot;
}

} // namespace

void
setOriginResolver(OriginResolver r)
{
    OriginSlot &slot = originSlot();
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.resolver = std::move(r);
}

OriginResolver
originResolver()
{
    OriginSlot &slot = originSlot();
    std::lock_guard<std::mutex> lock(slot.mu);
    return slot.resolver;
}

void
Profiler::requestPeriod(uint64_t period)
{
    std::lock_guard<std::mutex> lock(mu_);
    requested_period_ = period;
}

uint64_t
Profiler::requestedPeriod() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return requested_period_;
}

void
Profiler::setNameResolver(NameResolver r)
{
    std::lock_guard<std::mutex> lock(mu_);
    name_resolver_ = std::move(r);
}

void
Profiler::ingest(const PcSample &s, const OriginResolver &origin_resolver)
{
    ++total_;
    reason_totals_[static_cast<size_t>(s.reason)] += 1;

    PcInfo info;
    bool named = name_resolver_ && name_resolver_(s.pc, info);
    OriginInfo origin;
    origin.app_pc = s.pc;
    if (origin_resolver)
        origin_resolver(s.pc, s.ret_stack, origin);
    // Trampolines are JIT-generated outside any module, so the raw pc
    // does not resolve; attribute the sample to the original
    // application instruction's function instead (CUPTI does the same).
    if (!named && origin.app_pc != s.pc)
        named = name_resolver_ && name_resolver_(origin.app_pc, info);
    // Last resort: the origin resolver's own label (builtin
    // save/restore routines, unmapped trampoline slots).
    if (!named && !origin.func.empty()) {
        info.func = origin.func;
        info.func_base = origin.func_base;
        named = true;
    }

    PcHotspot &h = by_pc_[s.pc];
    if (h.total == 0) {
        h.pc = s.pc;
        h.app_pc = origin.app_pc;
        h.tool_origin = origin.tool;
        if (named) {
            h.func = info.func;
            h.func_base = info.func_base;
        }
    }
    ++h.total;
    h.by_reason[static_cast<size_t>(s.reason)] += 1;

    // Collapsed stack: outer frames from the warp's return-address
    // stack (innermost last in the record -> emitted outermost first),
    // then the leaf function, then the stall reason as the final frame
    // so flamegraphs show the stall mix per call path.
    std::string key;
    for (uint64_t ret_pc : s.ret_stack) {
        PcInfo fi;
        if (name_resolver_ && name_resolver_(ret_pc, fi))
            key += fi.func;
        else
            key += pcLabel(ret_pc);
        key += ';';
    }
    if (named)
        key += info.func;
    else
        key += pcLabel(s.pc);
    key += ';';
    key += stallReasonName(s.reason);
    folded_[key] += 1;

    if (retain_raw_)
        raw_.push_back(s);
}

void
Profiler::addLaunchSamples(const std::vector<PcSample> &samples)
{
    const OriginResolver origin_resolver = originResolver();
    std::lock_guard<std::mutex> lock(mu_);
    for (const PcSample &s : samples)
        ingest(s, origin_resolver);
}

uint64_t
Profiler::totalSamples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
}

std::array<uint64_t, kNumStallReasons>
Profiler::reasonTotals() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return reason_totals_;
}

std::vector<PcHotspot>
Profiler::hotspots(size_t top_n) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<PcHotspot> rows;
    rows.reserve(by_pc_.size());
    for (const auto &[pc, h] : by_pc_)
        rows.push_back(h);
    // Descending by sample count; pc breaks ties so the order is
    // deterministic regardless of map insertion history.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const PcHotspot &a, const PcHotspot &b) {
                         if (a.total != b.total)
                             return a.total > b.total;
                         return a.pc < b.pc;
                     });
    if (top_n != 0 && rows.size() > top_n)
        rows.resize(top_n);
    return rows;
}

std::string
Profiler::report(size_t top_n) const
{
    std::vector<PcHotspot> rows = hotspots(top_n);
    uint64_t total;
    std::array<uint64_t, kNumStallReasons> reasons;
    {
        std::lock_guard<std::mutex> lock(mu_);
        total = total_;
        reasons = reason_totals_;
    }

    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "==== PC sampling report: %" PRIu64 " samples ====\n",
                  total);
    out += buf;
    out += "stall breakdown:\n";
    for (size_t i = 0; i < kNumStallReasons; ++i) {
        if (reasons[i] == 0)
            continue;
        double pct =
            total ? 100.0 * static_cast<double>(reasons[i]) /
                        static_cast<double>(total)
                  : 0.0;
        std::snprintf(buf, sizeof(buf), "  %-16s %10" PRIu64 " (%5.1f%%)\n",
                      stallReasonName(static_cast<StallReason>(i)),
                      reasons[i], pct);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), "top %zu pcs by samples:\n",
                  rows.size());
    out += buf;
    out += "  samples   pct  origin  pc          function\n";
    for (const PcHotspot &h : rows) {
        double pct =
            total ? 100.0 * static_cast<double>(h.total) /
                        static_cast<double>(total)
                  : 0.0;
        std::string where = h.func.empty() ? pcLabel(h.pc) : h.func;
        if (!h.func.empty() && h.func_base <= h.pc) {
            std::snprintf(buf, sizeof(buf), "+0x%" PRIx64,
                          h.pc - h.func_base);
            where += buf;
        }
        if (h.tool_origin && h.app_pc != h.pc) {
            std::snprintf(buf, sizeof(buf), " (app pc 0x%" PRIx64 ")",
                          h.app_pc);
            where += buf;
        }
        std::snprintf(buf, sizeof(buf),
                      "  %7" PRIu64 " %5.1f%%  %-6s  0x%08" PRIx64 "  %s\n",
                      h.total, pct, h.tool_origin ? "tool" : "app", h.pc,
                      where.c_str());
        out += buf;
    }
    return out;
}

std::string
Profiler::collapsedStacks() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const auto &[key, count] : folded_) {
        out += key;
        out += ' ';
        appendU64(out, count);
        out += '\n';
    }
    return out;
}

std::string
Profiler::toJson() const
{
    // hotspots() / reasonTotals() take the lock themselves.
    std::vector<PcHotspot> rows = hotspots(0);
    std::array<uint64_t, kNumStallReasons> reasons = reasonTotals();
    uint64_t total = totalSamples();
    uint64_t period = requestedPeriod();

    std::string out = "{\n  \"total_samples\": ";
    appendU64(out, total);
    out += ",\n  \"requested_period\": ";
    appendU64(out, period);
    out += ",\n  \"stall_totals\": {";
    for (size_t i = 0; i < kNumStallReasons; ++i) {
        if (i)
            out += ", ";
        out += jsonQuote(stallReasonName(static_cast<StallReason>(i)));
        out += ": ";
        appendU64(out, reasons[i]);
    }
    out += "},\n  \"hotspots\": [";
    bool first = true;
    for (const PcHotspot &h : rows) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\"pc\": ";
        appendU64(out, h.pc);
        out += ", \"func\": ";
        out += jsonQuote(h.func);
        out += ", \"func_base\": ";
        appendU64(out, h.func_base);
        out += ", \"origin\": ";
        out += jsonQuote(h.tool_origin ? "tool" : "app");
        out += ", \"app_pc\": ";
        appendU64(out, h.app_pc);
        out += ", \"samples\": ";
        appendU64(out, h.total);
        out += ", \"by_reason\": {";
        for (size_t i = 0; i < kNumStallReasons; ++i) {
            if (i)
                out += ", ";
            out += jsonQuote(stallReasonName(static_cast<StallReason>(i)));
            out += ": ";
            appendU64(out, h.by_reason[i]);
        }
        out += "}}";
    }
    out += first ? "],\n" : "\n  ],\n";
    out += "  \"collapsed_stacks\": [";
    {
        std::lock_guard<std::mutex> lock(mu_);
        first = true;
        for (const auto &[key, count] : folded_) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "    {\"stack\": ";
            out += jsonQuote(key);
            out += ", \"count\": ";
            appendU64(out, count);
            out += '}';
        }
    }
    out += first ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

void
Profiler::setRetainRaw(bool v)
{
    std::lock_guard<std::mutex> lock(mu_);
    retain_raw_ = v;
    if (!v)
        raw_.clear();
}

std::vector<PcSample>
Profiler::rawSamples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return raw_;
}

void
Profiler::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    requested_period_ = 0;
    total_ = 0;
    reason_totals_ = {};
    by_pc_.clear();
    folded_.clear();
    raw_.clear();
}

} // namespace nvbit::obs
