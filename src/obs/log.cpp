#include "obs/log.hpp"

#include <cstdio>
#include <sstream>

#include "common/timer.hpp"
#include "obs/json.hpp"

namespace nvbit::obs {

std::string_view
logLevelName(LogLevel lv)
{
    switch (lv) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "info";
}

void
StructuredLog::enableToFile(std::string path, LogLevel min)
{
    std::lock_guard<std::mutex> lk(mu_);
    path_ = std::move(path);
    epoch_ns_ = nowNs();
    ring_.clear();
    dropped_ = 0;
    min_level_.store(static_cast<int>(min), std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
}

void
StructuredLog::log(LogLevel lv, std::string_view component,
                   std::string_view msg, std::vector<LogField> fields)
{
    if (!enabled(lv))
        return;
    Record rec;
    rec.lv = lv;
    rec.component.assign(component);
    rec.msg.assign(msg);
    rec.fields = std::move(fields);
    std::lock_guard<std::mutex> lk(mu_);
    if (!enabled_.load(std::memory_order_relaxed))
        return; // raced with disableAndFlush
    // Timestamp under mu_: epoch_ns_ is written by enableToFile()
    // under the same lock, and the relaxed enabled_ fast path above
    // establishes no happens-before with it.
    rec.ts_us = (nowNs() - epoch_ns_) / 1000;
    ring_.push_back(std::move(rec));
    while (ring_.size() > kRingCap) {
        ring_.pop_front();
        ++dropped_;
    }
}

bool
StructuredLog::writeLocked() const
{
    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (!f)
        return false;
    for (const Record &r : ring_) {
        std::ostringstream os;
        os << "{\"ts_us\": " << r.ts_us << ", \"level\": \""
           << logLevelName(r.lv) << "\", \"component\": ";
        os << jsonQuote(r.component);
        os << ", \"msg\": ";
        os << jsonQuote(r.msg);
        for (const LogField &fl : r.fields) {
            os << ", ";
            os << jsonQuote(fl.first);
            os << ": ";
            os << jsonQuote(fl.second);
        }
        os << "}\n";
        std::string line = os.str();
        std::fwrite(line.data(), 1, line.size(), f);
    }
    if (dropped_ != 0)
        std::fprintf(f,
                     "{\"level\": \"warn\", \"component\": \"log\", "
                     "\"msg\": \"ring overflow\", \"dropped\": %llu}\n",
                     static_cast<unsigned long long>(dropped_));
    std::fclose(f);
    return true;
}

std::string
StructuredLog::flush()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!enabled_.load(std::memory_order_relaxed))
        return "";
    writeLocked();
    return path_;
}

std::string
StructuredLog::disableAndFlush()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!enabled_.load(std::memory_order_relaxed))
        return "";
    enabled_.store(false, std::memory_order_relaxed);
    std::string path = path_;
    writeLocked();
    ring_.clear();
    dropped_ = 0;
    path_.clear();
    return path;
}

size_t
StructuredLog::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return ring_.size();
}

uint64_t
StructuredLog::dropped() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return dropped_;
}

} // namespace nvbit::obs
