/**
 * @file
 * Shared pieces of the repository benchmark (`dhisq_benchmark`): order
 * statistics, the in-memory span tracer, correctness bookkeeping and the
 * workload interface. See benchmark/README.md for what each workload
 * measures and why.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "compiler/compiler.hpp"
#include "service/job_server.hpp"
#include "sweep/exec.hpp"

namespace dhisq::bench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---- Order statistics (stats.cpp) ----------------------------------------

/**
 * The p-quantile (0 < p < 1) of `values`, interpolating between the order
 * statistics around rank p * (n + 1) — the default "exclusive" method of
 * Python's statistics.quantiles, so quartiles here match what an outside
 * script computes from the same numbers.
 */
double quantile(std::vector<double> values, double p);

double median(std::vector<double> values);

/** Third minus first quartile. */
double iqr(const std::vector<double> &values);

/**
 * The p-quantile interpolating at rank p * (n - 1) from 0 (numpy's
 * default), which never leaves the sample range; used for latency
 * percentiles of small samples, where the exclusive method extrapolates.
 */
double percentile(std::vector<double> values, double p);

// ---- Tracing (trace.cpp) -------------------------------------------------

/** One completed span; times are ns since the tracer was created. */
struct Span
{
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;       ///< index of the enclosing span; -1 for a root
    std::uint64_t op = 0;  ///< shared by the spans of one point/request/compile
};

/**
 * Records spans around the benchmark's calls into each library layer and
 * keeps them in memory until the run ends. A disabled tracer records
 * nothing: opening a scope is one branch.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }

    /** RAII span; closes when destroyed. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Re-tag the span once its outcome is known (cache hit/miss). */
        void rename(const char *name);

      private:
        Tracer *_tracer;
        int _index = -1;
    };

    Scope scope(const char *name) { return Scope(_enabled ? this : nullptr, name); }

    /** Id stamped on spans opened from now on. */
    void setOp(std::uint64_t op) { _op = op; }

    /** Add to a named per-layer counter (no-op when disabled). */
    void
    count(const std::string &name, double by)
    {
        if (_enabled)
            _counts[name] += by;
    }

    /** Append an already-completed span (self-test input). */
    int add(const char *name, std::int64_t start_ns, std::int64_t end_ns,
            int parent, std::uint64_t op);

    const std::vector<Span> &spans() const { return _spans; }
    const std::map<std::string, double> &counts() const { return _counts; }

    /** Seconds per span name of duration minus the part child spans cover,
     *  over the spans with index in [begin, end). */
    std::map<std::string, double>
    selfSeconds(std::size_t begin = 0, std::size_t end = SIZE_MAX) const;

    /** Chrome trace-event document (opens in Perfetto / chrome://tracing). */
    Json chromeTrace() const;

  private:
    std::int64_t nowNs() const;

    bool _enabled;
    Clock::time_point _origin = Clock::now();
    std::vector<Span> _spans;
    int _open = -1;
    std::uint64_t _op = 0;
    std::map<std::string, double> _counts;
};

// ---- Correctness bookkeeping ---------------------------------------------

/** Attempted/failed operation counts of one run, plus the first problems. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    /** Count one operation; a non-empty `problem` marks it failed. */
    void
    op(const std::string &problem)
    {
        ++attempted;
        if (!problem.empty())
            fail(problem);
    }

    void
    fail(const std::string &problem)
    {
        ++failed;
        if (problems.size() < 8)
            problems.push_back(problem);
    }
};

// ---- Workloads (workloads.cpp) -------------------------------------------

/** What one pass over a workload's fixed work produced. */
struct Round
{
    /** Host seconds per operation (point, compile, request or job), in
     *  the same order every round. */
    std::vector<double> latencies;
    /** Host seconds of fixed work outside the operations (report write). */
    double extra = 0.0;
    /** Simulated events executed (0 for compile-only work). */
    double events = 0.0;
    /** Digest of every deterministic output, in input order. */
    Hash128 digest;
    /** Deterministic summary values (simulated cycles, ratios, counts). */
    Json exact = Json::object();

    // Traced rounds only.
    /** Host seconds of Machine::run on functional (state-vector) jobs. */
    double functional_run_s = 0.0;
    /** Per service request: seconds inside the layers the request calls. */
    std::vector<double> layer_seconds;
};

/** One benchmark workload: seeded inputs plus a fixed amount of work. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input from the seed (timed as set-up). */
    virtual void setup(Tracer &tracer) = 0;

    /**
     * Run the fixed work once. With the tracer off this calls the
     * library's own entry points (sweep::executeWith, Compiler::tryCompile,
     * JobServer::submit); with it on, the same calls decomposed layer by
     * layer under spans. Both must produce the same digest.
     */
    virtual Round round(Tracer &tracer, Checks &checks) = 0;

    /** Host seconds of Machine::run when the last round's functional jobs
     *  rerun on a timing-only device (0 when there are none). */
    virtual double timingOnlyRerunSeconds() { return 0.0; }
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** nullptr when `name` is not a workload. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &out_dir);

// ---- Correctness checks (workloads.cpp), shared with the self-test -------
// Each returns "" when the output is correct, else what is wrong.

/** Fig. 15 point: no deadlock, no rejection, no coincidence break under
 *  BISP (lock-step coincidences are the paper's data, not failures). */
std::string checkPoint(const sweep::ExecResult &result,
                       compiler::SyncScheme scheme);

/** The compiler accepted the circuit. */
std::string checkCompile(const Result<compiler::CompiledProgram> &result);

/** The service reported the job as done. */
std::string checkJob(const service::JobResult &job);

/** A served job's measurement stream equals its cache-off replay's. */
std::string checkReplay(const std::string &id, const Hash128 &served,
                        const Hash128 &replay);

/** A run committed exactly the measurements its circuit contains. */
std::string checkMeasurementCount(const sweep::ExecResult &result,
                                  std::size_t expected);

/** Digest of a device measurement stream (qubit, bit, start, ready). */
Hash128 measurementDigest(
    const std::vector<q::QuantumDevice::MeasurementRecord> &records);

/** Number of measurement ops in a circuit. */
std::size_t measurementsIn(const compiler::Circuit &circuit);

// ---- Metric spec, run records and comparison (compare.cpp) ---------------

/** One metric as BENCHMARK.json declares it. */
struct MetricSpec
{
    std::string name;
    std::string unit;
    bool lower_is_better = true;
    double bound = 0.0; ///< allowed worsening, share of the parent median
};

struct Spec
{
    std::vector<MetricSpec> end_to_end;
    std::vector<MetricSpec> per_layer;
};

/** Parse BENCHMARK.json. */
Result<Spec> loadSpec(const std::string &path);

/** Schema tag of the per-run record `run --record` writes. */
inline constexpr const char *kRecordSchema = "dhisq-benchmark-run-v1";

/** Outcome of comparing one metric on one workload across two commits. */
enum class Verdict
{
    kGain,       ///< change wins >= 9/10 pairs by more than the parent IQR
    kNoWorse,    ///< change median within the bound of the parent's
    kUnresolved, ///< parent spread wider than the bound
    kRegression, ///< change median worse than the bound allows
};

const char *toString(Verdict verdict);

/**
 * Judge `change` against `parent` runs of one metric, paired by index
 * (runs alternate which commit goes first).
 */
Verdict judge(const std::vector<double> &parent,
              const std::vector<double> &change, bool lower_is_better,
              double bound);

/** Print every metric of the records in `dir` (median, quartiles, n). */
int report(const std::string &dir, const Spec &spec);

/** Compare two directories of records, one row per workload. */
int compare(const std::string &parent_dir, const std::string &change_dir,
            const Spec &spec);

/** Built-in checks of the statistics, tracer, comparator and checks. */
int selftest();

}  // namespace dhisq::bench
