#include <algorithm>

#include "bench.hpp"

namespace dhisq::bench {

Tracer::Scope::Scope(Tracer *tracer, const char *name) : _tracer(tracer)
{
    if (_tracer == nullptr)
        return;
    const std::int64_t now = _tracer->nowNs();
    _index = _tracer->add(name, now, now, _tracer->_open, _tracer->_op);
    _tracer->_open = _index;
}

Tracer::Scope::~Scope()
{
    if (_tracer == nullptr)
        return;
    Span &span = _tracer->_spans[std::size_t(_index)];
    span.end_ns = _tracer->nowNs();
    _tracer->_open = span.parent;
}

void
Tracer::Scope::rename(const char *name)
{
    if (_tracer != nullptr)
        _tracer->_spans[std::size_t(_index)].name = name;
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                _origin)
        .count();
}

int
Tracer::add(const char *name, std::int64_t start_ns, std::int64_t end_ns,
            int parent, std::uint64_t op)
{
    _spans.push_back(Span{name, start_ns, end_ns, parent, op});
    return int(_spans.size()) - 1;
}

std::map<std::string, double>
Tracer::selfSeconds(std::size_t begin, std::size_t end) const
{
    end = std::min(end, _spans.size());
    // Spans of one thread nest and never overlap their siblings, so the
    // part of a span its children cover is the sum of their durations.
    std::vector<std::int64_t> covered(end - begin, 0);
    for (std::size_t i = begin; i < end; ++i) {
        const Span &span = _spans[i];
        if (span.parent >= std::int64_t(begin))
            covered[std::size_t(span.parent) - begin] +=
                span.end_ns - span.start_ns;
    }
    std::map<std::string, double> self;
    for (std::size_t i = begin; i < end; ++i) {
        const Span &span = _spans[i];
        self[span.name] +=
            double(span.end_ns - span.start_ns - covered[i - begin]) * 1e-9;
    }
    return self;
}

Json
Tracer::chromeTrace() const
{
    Json events = Json::array();
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &span = _spans[i];
        Json event = Json::object();
        event["name"] = span.name;
        event["ph"] = "X";
        event["ts"] = double(span.start_ns) * 1e-3;
        event["dur"] = double(span.end_ns - span.start_ns) * 1e-3;
        event["pid"] = 1;
        event["tid"] = 1;
        Json args = Json::object();
        args["op"] = span.op;
        args["parent"] = span.parent;
        event["args"] = std::move(args);
        events.push(std::move(event));
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    return doc;
}

} // namespace dhisq::bench
