#include "sim/cache.hpp"

#include "common/logging.hpp"

namespace nvbit::sim {

Cache::Cache(const CacheConfig &cfg)
    : line_bytes_(cfg.line_bytes), assoc_(cfg.assoc)
{
    NVBIT_ASSERT(cfg.line_bytes > 0 && cfg.assoc > 0 && cfg.size_bytes > 0,
                 "invalid cache configuration");
    size_t lines = cfg.size_bytes / cfg.line_bytes;
    NVBIT_ASSERT(lines >= cfg.assoc, "cache smaller than one set");
    num_sets_ = lines / cfg.assoc;
    ways_.resize(num_sets_ * assoc_);
}

bool
Cache::access(uint64_t line_addr)
{
    ++tick_;
    uint64_t set = (line_addr / line_bytes_) % num_sets_;
    uint64_t tag = line_addr / line_bytes_ / num_sets_;
    Way *base = &ways_[set * assoc_];
    Way *victim = base;
    for (unsigned w = 0; w < assoc_; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == tag) {
            way.lru = tick_;
            return true;
        }
        if (!way.valid) {
            victim = &way; // prefer invalid ways
        } else if (victim->valid && way.lru < victim->lru) {
            victim = &way;
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = tick_;
    return false;
}

void
Cache::invalidateAll()
{
    for (Way &w : ways_)
        w = Way{};
}

CacheHierarchy::CacheHierarchy(const GpuConfig &cfg)
    : line_bytes_(cfg.l1.line_bytes), l2_(cfg.l2)
{
    NVBIT_ASSERT(cfg.l1.line_bytes == cfg.l2.line_bytes,
                 "L1/L2 line sizes must match");
    l1s_.reserve(cfg.num_sms);
    for (unsigned i = 0; i < cfg.num_sms; ++i)
        l1s_.emplace_back(cfg.l1);
}

bool
CacheHierarchy::accessL1(unsigned sm, uint64_t line_addr)
{
    NVBIT_ASSERT(sm < l1s_.size(), "SM index %u out of range", sm);
    return l1s_[sm].access(line_addr);
}

bool
CacheHierarchy::accessL2(uint64_t line_addr)
{
    return l2_.access(line_addr);
}

void
CacheHierarchy::invalidateAll()
{
    for (Cache &c : l1s_)
        c.invalidateAll();
    l2_.invalidateAll();
}

void
Cache::restore(const Image &img)
{
    NVBIT_ASSERT(img.ways.size() == ways_.size(),
                 "restoring a cache image of different geometry");
    tick_ = img.tick;
    ways_ = img.ways;
}

CacheHierarchy::Image
CacheHierarchy::snapshot() const
{
    Image img;
    img.l1s.reserve(l1s_.size());
    for (const Cache &c : l1s_)
        img.l1s.push_back(c.snapshot());
    img.l2 = l2_.snapshot();
    return img;
}

void
CacheHierarchy::restore(const Image &img)
{
    NVBIT_ASSERT(img.l1s.size() == l1s_.size(),
                 "restoring a hierarchy image with a different SM count");
    for (size_t i = 0; i < l1s_.size(); ++i)
        l1s_[i].restore(img.l1s[i]);
    l2_.restore(img.l2);
}

} // namespace nvbit::sim
