#include "obs/publisher.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.hpp"

namespace nvbit::obs {

namespace {

constexpr const char kUnixPrefix[] = "unix:";

/** Socket-mode poll granularity: bounds how long stop() can wait for
 *  the thread to notice the flag, independent of the scrape period. */
constexpr int kSocketPollMs = 50;

} // namespace

void
TelemetryPublisher::setCollector(Collector c)
{
    std::lock_guard<std::mutex> lk(mu_);
    collector_ = std::move(c);
}

std::string
TelemetryPublisher::scrapeOnce(uint64_t *epoch_out)
{
    Collector c;
    {
        std::lock_guard<std::mutex> lk(mu_);
        c = collector_;
    }
    if (c)
        c();
    std::string payload =
        MetricsRegistry::instance().toPrometheus(epoch_out);
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++scrapes_;
    }
    return payload;
}

uint64_t
TelemetryPublisher::scrapeCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return scrapes_;
}

bool
TelemetryPublisher::running() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return running_;
}

bool
TelemetryPublisher::writeFileSnapshot(const std::string &payload)
{
    // Write-to-temp + rename: scrapers reading the file never see a
    // partially written payload.
    std::string tmp = path_ + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        return false;
    std::fwrite(payload.data(), 1, payload.size(), f);
    std::fclose(f);
    return std::rename(tmp.c_str(), path_.c_str()) == 0;
}

bool
TelemetryPublisher::start(std::string path, uint64_t period_ms)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (running_ || path.empty())
        return running_;
    socket_mode_ =
        path.rfind(kUnixPrefix, 0) == 0;
    path_ = socket_mode_ ? path.substr(sizeof(kUnixPrefix) - 1) : path;
    period_ms_ = period_ms == 0 ? 1 : period_ms;
    last_epoch_ = ~0ull;
    if (socket_mode_) {
        sockaddr_un addr{};
        if (path_.size() >= sizeof(addr.sun_path))
            return false;
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listen_fd_ < 0)
            return false;
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
        ::unlink(path_.c_str());
        if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listen_fd_, 8) != 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
            return false;
        }
    } else {
        // Fail fast on an unwritable path instead of silently spinning.
        std::FILE *f = std::fopen(path_.c_str(), "w");
        if (!f)
            return false;
        std::fclose(f);
    }
    stop_requested_ = false;
    running_ = true;
    thread_ = std::thread([this] {
        if (socket_mode_)
            runSocket();
        else
            runFile();
    });
    return true;
}

void
TelemetryPublisher::runFile()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_requested_) {
        cv_.wait_for(lk, std::chrono::milliseconds(period_ms_),
                     [this] { return stop_requested_; });
        if (stop_requested_)
            break;
        const uint64_t last = last_epoch_;
        lk.unlock();
        // The collector runs every tick, even when the registry looks
        // quiescent: windowed SLO gauges must decay as ring buckets
        // age out and breach edges must fire/clear on an otherwise
        // idle registry.  Collector writes that change nothing leave
        // the epoch alone (setGauge skips no-op writes), so an idle
        // registry still skips the rewrite below.  The epoch is the
        // one this payload was serialised under — taken inside the
        // registry lock, so mutations landing after the snapshot
        // retrigger the next tick instead of being lost until some
        // later write.
        uint64_t observed = 0;
        std::string payload = scrapeOnce(&observed);
        bool wrote = false;
        if (observed != last)
            wrote = writeFileSnapshot(payload);
        lk.lock();
        if (wrote)
            last_epoch_ = observed;
    }
}

void
TelemetryPublisher::runSocket()
{
    for (;;) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (stop_requested_)
                return;
        }
        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        int n = ::poll(&pfd, 1, kSocketPollMs);
        if (n <= 0)
            continue;
        int conn = ::accept(listen_fd_, nullptr, nullptr);
        if (conn < 0)
            continue;
        std::string payload = scrapeOnce();
        size_t off = 0;
        while (off < payload.size()) {
            // MSG_NOSIGNAL: a scraper that hangs up mid-payload (curl
            // timeout, killed nvbit_run --watch) must yield EPIPE here,
            // not a SIGPIPE that kills the workload — the telemetry
            // plane is passive, an external observer cannot take the
            // process down.
            ssize_t w = ::send(conn, payload.data() + off,
                               payload.size() - off, MSG_NOSIGNAL);
            if (w < 0 && errno == EINTR)
                continue;
            if (w <= 0)
                break; // scraper went away; drop the rest of the scrape
            off += static_cast<size_t>(w);
        }
        ::close(conn);
    }
}

void
TelemetryPublisher::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!running_)
            return;
        stop_requested_ = true;
    }
    cv_.notify_all();
    thread_.join();
    bool was_socket;
    std::string path;
    {
        std::lock_guard<std::mutex> lk(mu_);
        was_socket = socket_mode_;
        path = path_;
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        running_ = false;
    }
    if (was_socket) {
        ::unlink(path.c_str());
    } else {
        // Leave a final snapshot so the file equals the end state.
        std::string payload = scrapeOnce();
        std::lock_guard<std::mutex> lk(mu_);
        writeFileSnapshot(payload);
    }
    std::lock_guard<std::mutex> lk(mu_);
    path_.clear();
    collector_ = nullptr;
}

} // namespace nvbit::obs
