#include "metrics/registry.hpp"

#include "metrics/alloc_ledger.hpp"

namespace altis::metrics {

const char* to_string(instrument_kind k) {
    switch (k) {
        case instrument_kind::counter: return "counter";
        case instrument_kind::gauge: return "gauge";
        case instrument_kind::watermark: return "watermark";
        case instrument_kind::histogram: return "histogram";
    }
    return "?";
}

registry& registry::instance() {
    // Never destroyed: the global thread_pool's workers meter into it until
    // the pool joins them at exit, which can run after a registry static
    // constructed later than the pool would already be gone.
    static registry* r = new registry;
    return *r;
}

std::string registry::key_of(const std::string& name, const label_set& labels) {
    std::string key = name;
    for (const auto& [k, v] : labels) {
        // '\x1f' cannot appear in metric/label names, so the key is
        // unambiguous without escaping.
        key += '\x1f';
        key += k;
        key += '\x1f';
        key += v;
    }
    return key;
}

// Find-or-create below is a linear scan: registration happens a few dozen
// times per process, always on the cold path, so a map would buy nothing.

counter& registry::get_counter(const std::string& name, const std::string& help,
                               label_set labels) {
    const std::string key = key_of(name, labels);
    std::lock_guard lock(mutex_);
    for (const entry& e : entries_)
        if (e.info.kind == instrument_kind::counter &&
            key_of(e.info.name, e.info.labels) == key)
            return const_cast<counter&>(*e.info.ctr);
    counter& c = counters_.emplace_back();
    entry e;
    e.info.name = name;
    e.info.help = help;
    e.info.kind = instrument_kind::counter;
    e.info.labels = std::move(labels);
    e.info.ctr = &c;
    entries_.push_back(std::move(e));
    return c;
}

gauge& registry::get_gauge(const std::string& name, const std::string& help,
                           label_set labels) {
    const std::string key = key_of(name, labels);
    std::lock_guard lock(mutex_);
    for (const entry& e : entries_)
        if (e.info.kind == instrument_kind::gauge &&
            key_of(e.info.name, e.info.labels) == key)
            return const_cast<gauge&>(*e.info.gge);
    gauge& g = gauges_.emplace_back();
    entry e;
    e.info.name = name;
    e.info.help = help;
    e.info.kind = instrument_kind::gauge;
    e.info.labels = std::move(labels);
    e.info.gge = &g;
    entries_.push_back(std::move(e));
    return g;
}

watermark& registry::get_watermark(const std::string& name,
                                   const std::string& help, label_set labels) {
    const std::string key = key_of(name, labels);
    std::lock_guard lock(mutex_);
    for (const entry& e : entries_)
        if (e.info.kind == instrument_kind::watermark &&
            key_of(e.info.name, e.info.labels) == key)
            return const_cast<watermark&>(*e.info.wmk);
    watermark& w = watermarks_.emplace_back();
    entry e;
    e.info.name = name;
    e.info.help = help;
    e.info.kind = instrument_kind::watermark;
    e.info.labels = std::move(labels);
    e.info.wmk = &w;
    entries_.push_back(std::move(e));
    return w;
}

histogram& registry::get_histogram(const std::string& name,
                                   const std::string& help, label_set labels) {
    const std::string key = key_of(name, labels);
    std::lock_guard lock(mutex_);
    for (const entry& e : entries_)
        if (e.info.kind == instrument_kind::histogram &&
            key_of(e.info.name, e.info.labels) == key)
            return const_cast<histogram&>(*e.info.hst);
    histogram& h = histograms_.emplace_back();
    entry e;
    e.info.name = name;
    e.info.help = help;
    e.info.kind = instrument_kind::histogram;
    e.info.labels = std::move(labels);
    e.info.hst = &h;
    entries_.push_back(std::move(e));
    return h;
}

std::vector<instrument_info> registry::instruments() const {
    std::lock_guard lock(mutex_);
    std::vector<instrument_info> out;
    out.reserve(entries_.size());
    for (const entry& e : entries_) out.push_back(e.info);
    return out;
}

void registry::reset_all() {
    std::vector<std::function<void()>> hooks;
    {
        std::lock_guard lock(mutex_);
        for (counter& c : counters_) c.reset();
        for (gauge& g : gauges_) g.reset();
        for (watermark& w : watermarks_) w.reset();
        for (histogram& h : histograms_) h.reset();
        hooks = reset_hooks_;
    }
    alloc_ledger::instance().clear();
    detail::g_epoch.fetch_add(1, std::memory_order_relaxed);
    // Outside the lock: hooks call get_gauge() to re-seed levels.
    for (const auto& fn : hooks) fn();
}

void registry::add_reset_hook(std::function<void()> fn) {
    std::lock_guard lock(mutex_);
    reset_hooks_.push_back(std::move(fn));
}

}  // namespace altis::metrics
