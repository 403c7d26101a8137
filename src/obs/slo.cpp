#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/logging.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace nvbit::obs {

const std::vector<uint64_t> &
sloLatencyBounds()
{
    // 1-2-5 geometric ladder, 1us .. 10s.  Fixed for all tenants and
    // all runs: the layout is part of the metric's identity.  Leaked
    // (like the counter tables): stream workers still record ops while
    // the session's exit handler drains the stream service.
    static const std::vector<uint64_t> *bounds = new std::vector<uint64_t>{
        1,      2,      5,      10,      20,      50,      100,
        200,    500,    1000,   2000,    5000,    10000,   20000,
        50000,  100000, 200000, 500000,  1000000, 2000000, 5000000,
        10000000,
    };
    return *bounds;
}

namespace {

/** Smallest ladder bound whose cumulative count reaches `rank`
 *  (1-based).  Saturates at the top bound when the rank lands in the
 *  overflow bucket. */
uint64_t
quantileFromCounts(const std::vector<uint64_t> &counts, uint64_t rank)
{
    const std::vector<uint64_t> &bounds = sloLatencyBounds();
    uint64_t cum = 0;
    for (size_t i = 0; i < bounds.size(); ++i) {
        cum += counts[i];
        if (cum >= rank)
            return bounds[i];
    }
    return bounds.back();
}

} // namespace

void
SloMonitor::configure(const Config &cfg)
{
    std::lock_guard<std::mutex> lk(mu_);
    cfg_ = cfg;
    if (cfg_.bucket_ms == 0)
        cfg_.bucket_ms = 1;
    if (cfg_.buckets == 0)
        cfg_.buckets = 1;
    tenants_.clear();
}

void
SloMonitor::setP99Threshold(uint64_t us)
{
    std::lock_guard<std::mutex> lk(mu_);
    cfg_.p99_threshold_us = us;
}

SloMonitor::Bucket &
SloMonitor::bucketFor(Tenant &t, uint64_t now_ns)
{
    const uint64_t bucket_ns = cfg_.bucket_ms * 1000000ull;
    const uint64_t seq = now_ns / bucket_ns;
    if (t.ring.empty())
        t.ring.resize(cfg_.buckets);
    Bucket &b = t.ring[seq % cfg_.buckets];
    if (b.seq != seq) {
        // Rolled past this slot since it was last written: it now
        // covers a new epoch, so its old contents leave the window.
        b.seq = seq;
        b.ops = 0;
        b.errors = 0;
        b.counts.assign(sloLatencyBounds().size() + 1, 0);
    } else if (b.counts.empty()) {
        b.counts.assign(sloLatencyBounds().size() + 1, 0);
    }
    return b;
}

void
SloMonitor::recordOp(uint32_t tenant, uint64_t latency_us, bool error,
                     uint64_t now_ns)
{
    std::lock_guard<std::mutex> lk(mu_);
    Tenant &t = tenants_[tenant];
    Bucket &b = bucketFor(t, now_ns);
    const std::vector<uint64_t> &bounds = sloLatencyBounds();
    size_t idx = 0;
    while (idx < bounds.size() && latency_us > bounds[idx])
        ++idx;
    ++b.counts[idx];
    ++b.ops;
    if (error)
        ++b.errors;
    ++t.total_ops;
    if (error)
        ++t.total_errors;
}

void
SloMonitor::windowLocked(const Tenant &t, uint64_t now_ns,
                         SloWindow &out) const
{
    out = SloWindow{};
    if (t.ring.empty())
        return;
    const uint64_t bucket_ns = cfg_.bucket_ms * 1000000ull;
    const uint64_t now_seq = now_ns / bucket_ns;
    const uint64_t oldest =
        now_seq >= cfg_.buckets - 1 ? now_seq - (cfg_.buckets - 1) : 0;
    std::vector<uint64_t> merged(sloLatencyBounds().size() + 1, 0);
    for (const Bucket &b : t.ring) {
        if (b.ops == 0 && b.errors == 0)
            continue;
        if (b.seq < oldest || b.seq > now_seq)
            continue; // stale slot awaiting reuse
        out.ops += b.ops;
        out.errors += b.errors;
        for (size_t i = 0; i < merged.size() && i < b.counts.size(); ++i)
            merged[i] += b.counts[i];
    }
    if (out.ops == 0)
        return;
    out.p50_us = quantileFromCounts(merged, (out.ops + 1) / 2);
    out.p99_us =
        quantileFromCounts(merged, (out.ops * 99 + 99) / 100);
    out.error_ppm = out.errors * 1000000 / out.ops;
}

bool
SloMonitor::window(uint32_t tenant, uint64_t now_ns,
                   SloWindow &out) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        return false;
    windowLocked(it->second, now_ns, out);
    return true;
}

bool
SloMonitor::summary(uint32_t tenant, SloSummary &out) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        return false;
    out.ops = it->second.total_ops;
    out.errors = it->second.total_errors;
    out.breaches = it->second.breaches;
    return true;
}

std::vector<uint32_t>
SloMonitor::tenants() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<uint32_t> out;
    out.reserve(tenants_.size());
    for (const auto &[id, t] : tenants_)
        out.push_back(id);
    return out;
}

void
SloMonitor::publishGauges(uint64_t now_ns)
{
    // Compute under the leaf lock, publish after: MetricsRegistry and
    // the logger must never be entered with mu_ held.
    struct Row {
        uint32_t tenant;
        SloWindow w;
        uint64_t breaches;
        bool new_breach;
        uint64_t threshold;
    };
    std::vector<Row> rows;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto &[id, t] : tenants_) {
            Row r;
            r.tenant = id;
            windowLocked(t, now_ns, r.w);
            r.new_breach = false;
            r.threshold = cfg_.p99_threshold_us;
            // Edge-triggered breach: count the crossing, not every
            // scrape spent above the threshold.
            bool over = cfg_.p99_threshold_us != 0 && r.w.ops > 0 &&
                        r.w.p99_us > cfg_.p99_threshold_us;
            if (over && !t.breached) {
                ++t.breaches;
                r.new_breach = true;
            }
            t.breached = over;
            r.breaches = t.breaches;
            rows.push_back(std::move(r));
        }
    }
    if (rows.empty())
        return;
    MetricsRegistry &mr = MetricsRegistry::instance();
    {
        MetricsRegistry::Txn txn(mr);
        for (const Row &r : rows) {
            auto name = [&](const char *suffix) {
                return strfmt("slo.tenant%u.%s", r.tenant, suffix);
            };
            txn.setGauge(name("window_ops"), r.w.ops);
            txn.setGauge(name("window_errors"), r.w.errors);
            txn.setGauge(name("window_p50_us"), r.w.p50_us);
            txn.setGauge(name("window_p99_us"), r.w.p99_us);
            txn.setGauge(name("window_error_ppm"), r.w.error_ppm);
            txn.setGauge(name("breaches"), r.breaches);
        }
    }
    for (const Row &r : rows) {
        if (!r.new_breach)
            continue;
        StructuredLog::instance().log(
            LogLevel::Warn, "slo",
            strfmt("tenant %u p99 %llu us over threshold %llu us",
                   r.tenant,
                   static_cast<unsigned long long>(r.w.p99_us),
                   static_cast<unsigned long long>(r.threshold)),
            {{"tenant", std::to_string(r.tenant)},
             {"p99_us", std::to_string(r.w.p99_us)},
             {"threshold_us", std::to_string(r.threshold)}});
    }
}

void
SloMonitor::reset()
{
    std::lock_guard<std::mutex> lk(mu_);
    tenants_.clear();
}

} // namespace nvbit::obs
