#include "resilience/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "core/json.hpp"

namespace altis::resilience {

namespace {

/// Shortest round-tripping decimal form: the resumed sweep must reproduce
/// the original doubles bit-for-bit or byte-identity is off the table.
void write_double(std::ostream& out, double v) {
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    if (ec != std::errc{}) {
        out << '0';
        return;
    }
    out.write(buf, ptr - buf);
}

/// Inverse of outcome::label() ("retried" is ok with attempts > 1, which
/// the entry carries separately). Unknown labels read as failed.
outcome::status status_from_label(const std::string& label) {
    using st = outcome::status;
    if (label == "ok" || label == "retried") return st::ok;
    if (label == "skipped") return st::skipped;
    if (label == "deadline") return st::deadline;
    if (label == "cancelled") return st::cancelled;
    if (label == "quarantined") return st::quarantined;
    return st::failed;
}

/// The string member `key` of `obj`, or "" when absent.
std::string string_field(const json::value& obj, const std::string& key) {
    const json::value* v = obj.find(key);
    return v != nullptr ? v->as_string() : std::string();
}

}  // namespace

const char* outcome::label() const {
    switch (st) {
        case status::ok: return attempts > 1 ? "retried" : "ok";
        case status::failed: return "failed";
        case status::skipped: return "skipped";
        case status::deadline: return "deadline";
        case status::cancelled: return "cancelled";
        case status::quarantined: return "quarantined";
    }
    return "?";
}

std::string to_line(const journal_entry& e) {
    std::ostringstream out;
    out << "{\"config\":" << json::quoted(e.config)
        << ",\"status\":" << json::quoted(e.oc.label())
        << ",\"attempts\":" << e.oc.attempts << ",\"backoff_ms\":";
    write_double(out, e.oc.backoff_ms);
    if (!e.oc.error.empty()) out << ",\"error\":" << json::quoted(e.oc.error);
    if (e.value) {
        out << ",\"value\":";
        write_double(out, *e.value);
    }
    if (!e.log.empty()) out << ",\"log\":" << json::quoted(e.log);
    if (!e.results.empty()) {
        out << ",\"results\":[";
        for (std::size_t i = 0; i < e.results.size(); ++i) {
            const journal_series& s = e.results[i];
            if (i > 0) out << ',';
            out << "{\"test\":" << json::quoted(s.test)
                << ",\"atts\":" << json::quoted(s.atts)
                << ",\"unit\":" << json::quoted(s.unit) << ",\"values\":[";
            for (std::size_t j = 0; j < s.values.size(); ++j) {
                if (j > 0) out << ',';
                write_double(out, s.values[j]);
            }
            out << "]}";
        }
        out << ']';
    }
    if (!e.plan.empty()) out << ",\"plan\":" << json::quoted(e.plan);
    out << '}';
    return out.str();
}

std::optional<journal_entry> parse_line(const std::string& line) {
    // A torn or malformed line -- bad JSON, a missing config, a field of the
    // wrong type -- is work not yet completed, never an error.
    try {
        const json::value v = json::parse(line);
        journal_entry e;
        e.config = v.at("config").as_string();
        if (const json::value* st = v.find("status"))
            e.oc.st = status_from_label(st->as_string());
        if (const json::value* a = v.find("attempts"))
            e.oc.attempts = static_cast<int>(a->as_number());
        if (const json::value* b = v.find("backoff_ms"))
            e.oc.backoff_ms = b->as_number();
        e.oc.error = string_field(v, "error");
        if (const json::value* x = v.find("value")) e.value = x->as_number();
        e.log = string_field(v, "log");
        e.plan = string_field(v, "plan");
        if (const json::value* rs = v.find("results")) {
            for (const json::value& r : rs->as_array()) {
                journal_series s{string_field(r, "test"),
                                 string_field(r, "atts"),
                                 string_field(r, "unit"),
                                 {}};
                if (const json::value* vals = r.find("values"))
                    for (const json::value& x : vals->as_array())
                        s.values.push_back(x.as_number());
                e.results.push_back(std::move(s));
            }
        }
        return e;
    } catch (const json::error&) {
        return std::nullopt;
    }
}

// ---- writer ---------------------------------------------------------------

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::string header_line(const std::string& sweep) {
    std::ostringstream h;
    h << "{\"altis_journal\":1,\"sweep\":" << json::quoted(sweep) << "}\n";
    return h.str();
}

}  // namespace

journal_writer::journal_writer(std::string path, const std::string& sweep,
                               bool append)
    : path_(std::move(path)) {
    if (append) {
        fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
        if (fd_ < 0) throw_errno("journal: cannot open " + path_);
        // A resumed journal that vanished (or was empty/torn down to
        // nothing) still needs its header.
        if (::lseek(fd_, 0, SEEK_END) == 0) write_line(header_line(sweep));
        return;
    }
    // Fresh journal: land the header atomically so a crash between create
    // and first append cannot leave a headerless file behind.
    const std::string tmp = path_ + ".tmp";
    const int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (tfd < 0) throw_errno("journal: cannot create " + tmp);
    const std::string h = header_line(sweep);
    if (::write(tfd, h.data(), h.size()) !=
        static_cast<ssize_t>(h.size())) {
        ::close(tfd);
        throw_errno("journal: cannot write " + tmp);
    }
    ::fsync(tfd);
    ::close(tfd);
    if (::rename(tmp.c_str(), path_.c_str()) != 0)
        throw_errno("journal: cannot rename " + tmp + " to " + path_);
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0) throw_errno("journal: cannot open " + path_);
}

journal_writer::~journal_writer() {
    if (fd_ >= 0) ::close(fd_);
}

void journal_writer::write_line(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::write(fd_, line.data() + off, line.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("journal: write failed on " + path_);
        }
        off += static_cast<std::size_t>(n);
    }
    ::fsync(fd_);
}

void journal_writer::append(const journal_entry& e) {
    write_line(to_line(e) + "\n");
}

// ---- reader ---------------------------------------------------------------

std::optional<journal_file> read_journal(const std::string& path,
                                         const std::string& expected_sweep) {
    if (::access(path.c_str(), F_OK) != 0)
        return std::nullopt;  // never started: degrade to a fresh run
    std::ifstream in(path);
    if (!in) throw std::runtime_error("journal: cannot read " + path);
    journal_file jf;
    std::string line;
    bool saw_header = false;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (!saw_header) {
            try {
                const json::value h = json::parse(line);
                if (h.at("altis_journal").as_number() != 1)
                    throw json::error("journal: unknown version");
                jf.sweep = h.at("sweep").as_string();
            } catch (const json::error&) {
                throw std::runtime_error(
                    "journal: " + path +
                    " is not an altis journal (bad header)");
            }
            if (jf.sweep != expected_sweep)
                throw std::runtime_error(
                    "journal: " + path + " belongs to sweep '" + jf.sweep +
                    "', not '" + expected_sweep + "'");
            saw_header = true;
            continue;
        }
        // A SIGKILL mid-append leaves at most one torn final line; anything
        // unparseable is treated as not-yet-completed work. A label that
        // repeats keeps every entry, in order: a sweep that encounters a
        // configuration several times journals each encounter.
        if (auto e = parse_line(line)) jf.entries.push_back(std::move(*e));
    }
    if (!saw_header)
        return std::nullopt;  // empty file: nothing was ever journaled
    return jf;
}

}  // namespace altis::resilience
