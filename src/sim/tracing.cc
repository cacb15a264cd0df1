#include "src/sim/tracing.hh"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace jumanji {

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatArgValue(double v)
{
    char buf[40];
    if (!std::isfinite(v)) return "null";
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15)
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::uint32_t
Tracer::beginRun(const std::string &label)
{
    std::uint32_t base = nextPid_;
    nextPid_ += kPidsPerRun;

    static const char *kProcNames[kPidsPerRun] = {"runtime", "cores",
                                                  "banks"};
    for (std::uint32_t p = 0; p < kPidsPerRun; p++) {
        Event e;
        e.ph = 'M';
        e.pid = base + p;
        e.name = "process_name";
        e.strArg = label + " " + kProcNames[p];
        push(std::move(e));
    }
    return base;
}

void
Tracer::mergeFrom(const Tracer &other)
{
    // Pids allocated by `other` start at 1; shift that block to start
    // at our next free pid.
    std::uint32_t pidShift = nextPid_ - 1;
    events_.reserve(events_.size() + other.events_.size());
    for (const Event &e : other.events_) {
        Event copy = e;
        copy.pid = e.pid + pidShift;
        // Counter names point into other's interned storage;
        // complete/instant/metadata names are string literals with
        // static storage and copy over as-is.
        if (e.ph == 'C') copy.name = intern(e.name);
        push(std::move(copy));
    }
    nextPid_ += other.nextPid_ - 1;
}

void
Tracer::threadName(std::uint32_t pid, std::uint32_t tid,
                   const std::string &name)
{
    Event e;
    e.ph = 'M';
    e.pid = pid;
    e.tid = tid;
    e.name = "thread_name";
    e.strArg = name;
    push(std::move(e));
}

void
Tracer::complete(std::uint32_t pid, std::uint32_t tid, const char *name,
                 Tick start, Tick dur, std::vector<Arg> args)
{
    Event e;
    e.ph = 'X';
    e.pid = pid;
    e.tid = tid;
    e.name = name;
    e.ts = start;
    e.dur = dur;
    e.args = std::move(args);
    push(std::move(e));
}

void
Tracer::instant(std::uint32_t pid, std::uint32_t tid, const char *name,
                Tick ts, std::vector<Arg> args)
{
    Event e;
    e.ph = 'i';
    e.pid = pid;
    e.tid = tid;
    e.name = name;
    e.ts = ts;
    e.args = std::move(args);
    push(std::move(e));
}

const char *
Tracer::intern(const char *name)
{
    // std::set nodes never move, so the c_str() stays valid for the
    // tracer's whole lifetime.
    return internedNames_.insert(name).first->c_str();
}

void
Tracer::counter(std::uint32_t pid, const char *name, Tick ts,
                double value)
{
    counterInterned(pid, intern(name), ts, value);
}

void
Tracer::counterInterned(std::uint32_t pid, const char *internedName,
                        Tick ts, double value)
{
    Event e;
    e.ph = 'C';
    e.pid = pid;
    e.name = internedName;
    e.ts = ts;
    e.args.push_back({"value", value});
    push(std::move(e));
}

void
Tracer::writeTo(std::ostream &os) const
{
    os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    bool first = true;
    for (const Event &e : events_) {
        if (!first) os << ",";
        first = false;
        os << "\n{\"ph\": \"" << e.ph << "\", \"name\": \""
           << jsonEscape(e.name) << "\", \"pid\": " << e.pid
           << ", \"tid\": " << e.tid;
        if (e.ph == 'M') {
            os << ", \"args\": {\"name\": \"" << jsonEscape(e.strArg)
               << "\"}}";
            continue;
        }
        os << ", \"ts\": " << e.ts;
        if (e.ph == 'X') os << ", \"dur\": " << e.dur;
        // Thread-scoped instants: the marker draws on its lane only.
        if (e.ph == 'i') os << ", \"s\": \"t\"";
        if (!e.args.empty()) {
            os << ", \"args\": {";
            for (std::size_t i = 0; i < e.args.size(); i++) {
                os << (i ? ", " : "") << '"' << jsonEscape(e.args[i].key)
                   << "\": " << formatArgValue(e.args[i].value);
            }
            os << '}';
        }
        os << '}';
    }
    os << "\n]}\n";
}

} // namespace jumanji
