/**
 * @file
 * Wall-clock tracing of the simulator itself, emitted as Chrome
 * trace-event JSON (open the file in chrome://tracing or
 * https://ui.perfetto.dev to see where sim time goes).
 *
 * The model is one process-wide TraceSession (opened by a front-end
 * flag such as `examples/campaign --trace=out.json`) with one event
 * track per attached thread: the driver/main thread attaches as tid 0
 * at construction, and every campaign worker attaches itself as
 * tid w+1. Spans are RAII (obs::ScopedSpan) and instants one-shot
 * (obs::instant); both record into the calling thread's private
 * buffer, so recording takes no lock.
 *
 * Zero-cost-when-detached rule: with no session active (the default
 * everywhere, including every golden test), the thread-local buffer
 * pointer is null and a span constructor is one load + branch -- it
 * reads no clock, allocates nothing, and touches no shared state.
 * Instrumentation must never influence simulated behaviour: spans
 * observe wall-clock only, never simulated cycles, and nothing in this
 * subsystem feeds back into the simulation (`ctest -L golden` passes
 * bit-identically with tracing compiled in).
 *
 * Buffers are bounded (eventCapPerThread); a saturated thread drops
 * further events, and the drop count is reported on stderr and as a
 * "dropped_events" instant in the written trace -- a truncated trace
 * says so instead of silently looking complete.
 */

#ifndef PKTCHASE_OBS_TRACE_HH
#define PKTCHASE_OBS_TRACE_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/profile.hh"

namespace pktchase::obs
{

class TraceSession;

namespace detail
{

/** One recorded span or instant. */
struct TraceEvent
{
    /** Static-storage name; null when dynName is used instead. */
    const char *name = nullptr;
    std::string dynName;
    const char *cat = "sim";
    double tsMicros = 0.0;  ///< Start, relative to session start.
    double durMicros = -1.0; ///< Span duration; < 0 means instant.
};

/** One thread's private event store. */
struct TraceBuffer
{
    std::uint32_t tid = 0;
    std::string threadName;
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
    std::size_t cap = 0;
    std::chrono::steady_clock::time_point epoch;

    void
    record(TraceEvent &&e)
    {
        if (events.size() < cap)
            events.push_back(std::move(e));
        else
            ++dropped;
    }

    /** Microseconds since the session started. */
    double
    nowMicros() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    }
};

/**
 * The calling thread's buffer, nullptr while detached. Like
 * obs::Stat's block it lives inside an inline function rather than as
 * an extern thread_local: constant-initialized, the local compiles to
 * a plain TLS access with no cross-TU init-wrapper call (and no
 * wrapper for UBSan to trip over).
 */
inline TraceBuffer *&
tlsTrace()
{
    static thread_local TraceBuffer *buffer = nullptr;
    return buffer;
}

} // namespace detail

/** Whether the calling thread is recording into an active session. */
inline bool
tracing()
{
    return detail::tlsTrace() != nullptr;
}

/**
 * A trace recording: owns every thread's buffer and writes the JSON
 * file once on destruction (or an explicit write()).
 *
 * At most one session exists at a time (fatal otherwise); the
 * constructing thread is attached as tid 0 ("driver"). Worker threads
 * attach with attachCurrentThread() -- the campaign executor does this
 * automatically via attachWorkerThread() -- and must detach (or exit)
 * before the session is destroyed.
 */
class TraceSession
{
  public:
    /**
     * @param path            Output file ("out.json").
     * @param event_cap       Max events kept per attached thread;
     *                        further events are counted and dropped.
     */
    explicit TraceSession(std::string path,
                          std::size_t event_cap = std::size_t(1) << 22);
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /**
     * Attach the calling thread as track @p tid named @p name; from
     * now on its spans/instants record here. Fatal when the thread is
     * already attached.
     */
    void attachCurrentThread(std::uint32_t tid, std::string name);

    /** Stop recording on the calling thread (no-op when detached). */
    static void detachCurrentThread();

    /**
     * Write the trace file. Called by the destructor; idempotent (the
     * second write is a no-op returning the first outcome).
     * @return false (with a message on stderr) when the file cannot be
     *         written.
     */
    bool write();

    /** Events dropped over every buffer (saturation indicator). */
    std::uint64_t droppedEvents() const;

    /** One attached thread's drop tally, for the profile report. */
    struct ThreadDrops
    {
        std::uint32_t tid = 0;
        std::uint64_t dropped = 0;
    };

    /** Per-thread drop counts, in attach (tid) order. Call after the
     *  campaign joined its workers -- counts still ticking elsewhere
     *  are a data race, same rule as write(). */
    std::vector<ThreadDrops> perThreadDrops() const;

    /** The per-thread event cap this session was opened with. */
    std::size_t eventCap() const { return eventCap_; }

    /** The process-wide active session, or nullptr. */
    static TraceSession *active();

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::size_t eventCap_;
    std::chrono::steady_clock::time_point start_;
    mutable std::mutex mutex_; ///< Guards buffers_ during attach.
    std::vector<std::unique_ptr<detail::TraceBuffer>> buffers_;
    bool written_ = false;
    bool writeOk_ = false;
};

/**
 * Attach the calling campaign worker to the active trace session as
 * track w+1 (tid 0 is the driver) and to the active profile session;
 * no-op for whichever is inactive. Pair with detachWorkerThread()
 * before the worker exits.
 */
void attachWorkerThread(unsigned worker_index);

/** Detach the calling thread from whatever sessions it records into. */
void detachWorkerThread();

/**
 * RAII span: records [construction, destruction) on the calling
 * thread's track. When no session is attached the constructor is one
 * thread-local load and a branch.
 */
class ScopedSpan
{
  public:
    /** @p name and @p cat must have static storage duration. */
    explicit ScopedSpan(const char *name, const char *cat = "sim")
    {
        if (detail::TraceBuffer *b = detail::tlsTrace()) {
            buf_ = b;
            name_ = name;
            cat_ = cat;
            startMicros_ = b->nowMicros();
        }
    }

    /** Dynamic-name span (campaign cell names); @p name is copied
     *  only when a session is attached. */
    ScopedSpan(const std::string &name, const char *cat)
    {
        if (detail::TraceBuffer *b = detail::tlsTrace()) {
            buf_ = b;
            dynName_ = name;
            cat_ = cat;
            startMicros_ = b->nowMicros();
        }
    }

    /**
     * Profiled span: besides tracing (when a trace session is
     * attached), folds its duration into the calling thread's
     * PhaseStats slot for @p phase (when a profile session is
     * attached). Detached from both, still one load + branch each.
     */
    explicit ScopedSpan(const ProfilePhase &phase)
    {
        if (detail::TraceBuffer *b = detail::tlsTrace()) {
            buf_ = b;
            name_ = phase.name();
            cat_ = phase.cat();
            startMicros_ = b->nowMicros();
        }
        if (detail::ProfileBlock *p = detail::tlsProfile) {
            prof_ = p;
            detail::profileOpen(p, phase.id());
        }
    }

    /** Profiled span with a dynamic trace name (campaign cell names):
     *  the trace track shows @p name, the profile aggregates under
     *  the phase (per-cell split comes from the campaign drain). */
    ScopedSpan(const std::string &name, const ProfilePhase &phase)
    {
        if (detail::TraceBuffer *b = detail::tlsTrace()) {
            buf_ = b;
            dynName_ = name;
            cat_ = phase.cat();
            startMicros_ = b->nowMicros();
        }
        if (detail::ProfileBlock *p = detail::tlsProfile) {
            prof_ = p;
            detail::profileOpen(p, phase.id());
        }
    }

    ~ScopedSpan()
    {
        if (prof_)
            detail::profileClose(prof_);
        if (!buf_)
            return;
        detail::TraceEvent e;
        e.name = name_;
        e.dynName = std::move(dynName_);
        e.cat = cat_;
        e.tsMicros = startMicros_;
        e.durMicros = buf_->nowMicros() - startMicros_;
        buf_->record(std::move(e));
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    detail::TraceBuffer *buf_ = nullptr;
    detail::ProfileBlock *prof_ = nullptr;
    const char *name_ = nullptr;
    std::string dynName_;
    const char *cat_ = "sim";
    double startMicros_ = 0.0;
};

/** Record an instant event on the calling thread's track. */
inline void
instant(const char *name, const char *cat = "sim")
{
    if (detail::TraceBuffer *b = detail::tlsTrace()) {
        detail::TraceEvent e;
        e.name = name;
        e.cat = cat;
        e.tsMicros = b->nowMicros();
        b->record(std::move(e));
    }
}

} // namespace pktchase::obs

#endif // PKTCHASE_OBS_TRACE_HH
