#include "trace.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace pktchase::obs
{

namespace
{

/** The process-wide session; attach/detach and ctor/dtor synchronize
 *  through the session mutex where it matters (worker attach). */
TraceSession *activeSession = nullptr;

/** Escape the characters JSON string literals cannot hold raw. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

const char *
eventName(const detail::TraceEvent &e)
{
    return e.name ? e.name : e.dynName.c_str();
}

} // namespace

TraceSession::TraceSession(std::string path, std::size_t event_cap)
    : path_(std::move(path)), eventCap_(event_cap),
      start_(std::chrono::steady_clock::now())
{
    if (activeSession)
        fatal("TraceSession: a session is already active");
    if (path_.empty())
        fatal("TraceSession: empty output path");
    if (eventCap_ == 0)
        fatal("TraceSession: event cap must be nonzero");
    activeSession = this;
    attachCurrentThread(0, "driver");
}

TraceSession::~TraceSession()
{
    detachCurrentThread();
    write();
    activeSession = nullptr;
}

TraceSession *
TraceSession::active()
{
    return activeSession;
}

void
TraceSession::attachCurrentThread(std::uint32_t tid, std::string name)
{
    if (detail::tlsTrace())
        fatal("TraceSession: this thread is already attached");
    auto buf = std::make_unique<detail::TraceBuffer>();
    buf->tid = tid;
    buf->threadName = std::move(name);
    buf->cap = eventCap_;
    buf->epoch = start_;
    buf->events.reserve(1024);
    detail::TraceBuffer *raw = buf.get();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::move(buf));
    }
    detail::tlsTrace() = raw;
}

void
TraceSession::detachCurrentThread()
{
    detail::tlsTrace() = nullptr;
}

std::uint64_t
TraceSession::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t dropped = 0;
    for (const auto &b : buffers_)
        dropped += b->dropped;
    return dropped;
}

std::vector<TraceSession::ThreadDrops>
TraceSession::perThreadDrops() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ThreadDrops> out;
    out.reserve(buffers_.size());
    for (const auto &b : buffers_)
        out.push_back(ThreadDrops{b->tid, b->dropped});
    return out;
}

bool
TraceSession::write()
{
    // Callers must have detached every worker (the campaign joins its
    // workers before returning), so buffers_ is stable here.
    if (written_)
        return writeOk_;
    written_ = true;

    FILE *f = std::fopen(path_.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "TraceSession: cannot write %s\n",
                     path_.c_str());
        writeOk_ = false;
        return false;
    }

    std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n"
                    " \"traceEvents\": [\n");
    bool first = true;
    auto comma = [&] {
        if (!first)
            std::fprintf(f, ",\n");
        first = false;
    };

    std::uint64_t dropped = 0;
    for (const auto &b : buffers_) {
        comma();
        std::fprintf(f,
                     "  {\"ph\": \"M\", \"name\": \"thread_name\", "
                     "\"pid\": 0, \"tid\": %u, "
                     "\"args\": {\"name\": \"%s\"}}",
                     b->tid, jsonEscape(b->threadName).c_str());
        for (const detail::TraceEvent &e : b->events) {
            comma();
            if (e.durMicros < 0.0) {
                std::fprintf(f,
                             "  {\"ph\": \"i\", \"s\": \"t\", "
                             "\"name\": \"%s\", \"cat\": \"%s\", "
                             "\"ts\": %.3f, \"pid\": 0, \"tid\": %u}",
                             jsonEscape(eventName(e)).c_str(), e.cat,
                             e.tsMicros, b->tid);
            } else {
                std::fprintf(f,
                             "  {\"ph\": \"X\", \"name\": \"%s\", "
                             "\"cat\": \"%s\", \"ts\": %.3f, "
                             "\"dur\": %.3f, \"pid\": 0, \"tid\": %u}",
                             jsonEscape(eventName(e)).c_str(), e.cat,
                             e.tsMicros, e.durMicros, b->tid);
            }
        }
        if (b->dropped > 0) {
            dropped += b->dropped;
            comma();
            std::fprintf(f,
                         "  {\"ph\": \"i\", \"s\": \"t\", "
                         "\"name\": \"dropped_events: %llu\", "
                         "\"cat\": \"obs\", \"ts\": %.3f, "
                         "\"pid\": 0, \"tid\": %u}",
                         static_cast<unsigned long long>(b->dropped),
                         b->nowMicros(), b->tid);
        }
    }
    std::fprintf(f, "\n ]\n}\n");
    std::fclose(f);

    if (dropped > 0) {
        std::fprintf(stderr,
                     "TraceSession: %llu events dropped (per-thread cap "
                     "%zu reached); the trace is truncated\n",
                     static_cast<unsigned long long>(dropped), eventCap_);
    }
    writeOk_ = true;
    return true;
}

void
attachWorkerThread(unsigned worker_index)
{
    if (TraceSession *s = activeSession)
        s->attachCurrentThread(worker_index + 1,
                               "worker-" + std::to_string(worker_index));
    if (ProfileSession *p = ProfileSession::active())
        p->attachCurrentThread();
}

void
detachWorkerThread()
{
    TraceSession::detachCurrentThread();
    ProfileSession::detachCurrentThread();
}

} // namespace pktchase::obs
