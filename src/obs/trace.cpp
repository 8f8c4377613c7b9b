#include "obs/trace.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/env.hpp"
#include "common/log.hpp"

namespace pearl {
namespace obs {

const char *
toString(Category cat)
{
    switch (cat) {
    case Category::Wavelength:
        return "wavelength";
    case Category::Dba:
        return "dba";
    case Category::Fault:
        return "fault";
    case Category::Sweep:
        return "sweep";
    }
    return "unknown";
}

namespace {

/** JSON string escaping for event names and string args. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                std::ostringstream oss;
                oss << "\\u" << std::hex << std::setw(4)
                    << std::setfill('0') << static_cast<int>(c);
                out += oss.str();
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Round-trippable double rendering; JSON has no inf/nan literals. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream oss;
    oss << std::setprecision(std::numeric_limits<double>::max_digits10)
        << v;
    return oss.str();
}

/** Render one event as a Chrome-trace event object (single line). */
std::string
eventJson(const TraceEvent &e)
{
    std::ostringstream oss;
    oss << "{\"name\":\"" << jsonEscape(e.name) << "\",\"cat\":\""
        << toString(e.cat) << "\",\"ph\":\"" << e.phase
        << "\",\"ts\":" << e.ts;
    if (e.phase == 'X')
        oss << ",\"dur\":" << e.dur;
    oss << ",\"pid\":1,\"tid\":" << e.tid;
    if (!e.args.empty() || !e.sargs.empty()) {
        oss << ",\"args\":{";
        bool first = true;
        for (const auto &[key, value] : e.args) {
            if (!first)
                oss << ",";
            first = false;
            oss << "\"" << jsonEscape(key) << "\":" << jsonNumber(value);
        }
        for (const auto &[key, value] : e.sargs) {
            if (!first)
                oss << ",";
            first = false;
            oss << "\"" << jsonEscape(key) << "\":\"" << jsonEscape(value)
                << "\"";
        }
        oss << "}";
    }
    oss << "}";
    return oss.str();
}

} // namespace

// ---------------------------------------------------------------------------
// JsonlTraceSink

struct JsonlTraceSink::Impl
{
    std::ofstream out;
    std::string path;
};

JsonlTraceSink::JsonlTraceSink(const std::string &path)
    : impl_(std::make_unique<Impl>())
{
    impl_->path = path;
    impl_->out.open(path, std::ios::trunc);
    if (!impl_->out)
        warn("cannot open trace file ", path, "; events discarded");
}

JsonlTraceSink::~JsonlTraceSink() { close(); }

void
JsonlTraceSink::write(const TraceEvent &event)
{
    if (impl_->out)
        impl_->out << eventJson(event) << "\n";
}

void
JsonlTraceSink::close()
{
    if (impl_->out.is_open())
        impl_->out.close();
}

// ---------------------------------------------------------------------------
// ChromeTraceSink

struct ChromeTraceSink::Impl
{
    std::ofstream out;
    std::string path;
    bool any = false;
    bool closed = false;
};

ChromeTraceSink::ChromeTraceSink(const std::string &path)
    : impl_(std::make_unique<Impl>())
{
    impl_->path = path;
    impl_->out.open(path, std::ios::trunc);
    if (!impl_->out)
        warn("cannot open trace file ", path, "; events discarded");
    else
        impl_->out << "{\"traceEvents\":[\n";
}

ChromeTraceSink::~ChromeTraceSink() { close(); }

void
ChromeTraceSink::write(const TraceEvent &event)
{
    if (!impl_->out || impl_->closed)
        return;
    if (impl_->any)
        impl_->out << ",\n";
    impl_->any = true;
    impl_->out << eventJson(event);
}

void
ChromeTraceSink::close()
{
    if (!impl_->out.is_open() || impl_->closed)
        return;
    impl_->closed = true;
    impl_->out << "\n]}\n";
    impl_->out.close();
}

// ---------------------------------------------------------------------------
// TraceOptions

TraceOptions
TraceOptions::fromEnv()
{
    TraceOptions opts;
    opts.enabled = envBool("PEARL_TRACE", false);
    opts.path = envStr("PEARL_TRACE_PATH", opts.path);
    return opts;
}

namespace {

bool
hasSuffix(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

/** File-name-safe job label: alnum kept, everything else becomes '_'. */
std::string
sanitize(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '.';
        out += ok ? c : '_';
    }
    return out;
}

} // namespace

std::unique_ptr<TraceSink>
makeSink(const std::string &path)
{
    if (hasSuffix(path, ".jsonl"))
        return std::make_unique<JsonlTraceSink>(path);
    return std::make_unique<ChromeTraceSink>(path);
}

std::string
jobTracePath(const TraceOptions &opts, std::size_t job_index,
             const std::string &config_name,
             const std::string &pair_label)
{
    std::string stem = opts.path;
    std::string ext = ".json";
    for (const char *candidate : {".jsonl", ".json"}) {
        if (hasSuffix(stem, candidate)) {
            ext = candidate;
            stem.resize(stem.size() - ext.size());
            break;
        }
    }
    return stem + "-job" + std::to_string(job_index) + "-" +
           sanitize(config_name) + "-" + sanitize(pair_label) + ext;
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer(std::unique_ptr<TraceSink> sink, std::size_t capacity)
    : sink_(std::move(sink)), capacity_(capacity ? capacity : 1)
{
    buffer_.reserve(capacity_);
}

Tracer::~Tracer() { finish(); }

void
Tracer::record(TraceEvent event)
{
    if (finished_)
        return;
    buffer_.push_back(std::move(event));
    ++recorded_;
    if (buffer_.size() >= capacity_)
        flush();
}

void
Tracer::flush()
{
    for (const TraceEvent &event : buffer_)
        sink_->write(event);
    buffer_.clear();
}

void
Tracer::finish()
{
    if (finished_)
        return;
    flush();
    sink_->close();
    finished_ = true;
}

std::unique_ptr<Tracer>
makeTracer(const std::string &path)
{
    return std::make_unique<Tracer>(makeSink(path));
}

} // namespace obs
} // namespace pearl
