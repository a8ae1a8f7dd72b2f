/**
 * @file
 * BENCHMARK.json parsing, run-record summaries and the two-commit
 * comparator. The comparator follows the benchmark's own rules: a gain
 * needs the change to win at least nine in ten alternating pairs by more
 * than the parent's interquartile range; otherwise a metric is "no worse"
 * within its bound, "unresolved" when run-to-run spread exceeds the bound,
 * or a regression. Deterministic outputs compare exactly.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace dhisq::bench {

namespace {

Result<Json>
readJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Result<Json>::error("cannot read " + path);
    std::stringstream text;
    text << in.rdbuf();
    auto doc = Json::parse(text.str());
    if (!doc)
        return Result<Json>::error(path + ": " + doc.message());
    return doc;
}

/** True when a record has every field report() and compare() read. */
bool
wellFormed(const Json &record)
{
    const auto has = [&](const char *key, Json::Type type) {
        const Json *value = record.find(key);
        return value != nullptr && value->type() == type;
    };
    const Json *schema = record.find("schema");
    return schema != nullptr && schema->isString() &&
           schema->asString() == kRecordSchema &&
           has("workload", Json::Type::String) &&
           has("trace", Json::Type::Bool) && has("seed", Json::Type::Int) &&
           has("correct", Json::Type::Bool) &&
           has("metrics", Json::Type::Object) &&
           has("outputs_digest", Json::Type::String) &&
           record.find("exact") != nullptr;
}

/** Run records (*.run.json) in `dir`, in file-name order; run.sh numbers
 *  them by repeat, so index i of two directories forms pair i. */
std::vector<Json>
loadRecords(const std::string &dir)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(dir, ec)) {
        const std::string path = entry.path().string();
        if (path.size() > 9 &&
            path.compare(path.size() - 9, 9, ".run.json") == 0)
            paths.push_back(path);
    }
    std::sort(paths.begin(), paths.end());
    std::vector<Json> records;
    for (const std::string &path : paths) {
        auto doc = readJson(path);
        if (doc && wellFormed(doc.value()))
            records.push_back(doc.take());
        else
            std::fprintf(stderr, "skipping %s: not a run record\n",
                         path.c_str());
    }
    return records;
}

std::vector<const Json *>
runsOf(const std::vector<Json> &records, const std::string &workload,
       bool traced)
{
    std::vector<const Json *> runs;
    for (const Json &r : records) {
        if (r.find("workload")->asString() == workload &&
            r.find("trace")->asBool() == traced)
            runs.push_back(&r);
    }
    return runs;
}

std::vector<double>
valuesOf(const std::vector<const Json *> &runs, const std::string &metric)
{
    std::vector<double> values;
    for (const Json *r : runs) {
        const Json *m = r->find("metrics")->find(metric);
        const Json *value = m ? m->find("value") : nullptr;
        if (value && value->isNumber())
            values.push_back(value->asDouble());
    }
    return values;
}

/** Pairs (parent[i], change[i]) the change wins; ties count for neither. */
std::size_t
wins(const std::vector<double> &parent, const std::vector<double> &change,
     bool lower_is_better)
{
    std::size_t won = 0;
    for (std::size_t i = 0; i < std::min(parent.size(), change.size()); ++i)
        won += (lower_is_better ? change[i] < parent[i] : change[i] > parent[i]);
    return won;
}

/** True when every run holds the same value under `key`. */
bool
allEqual(const std::vector<const Json *> &runs, const char *key)
{
    for (const Json *r : runs) {
        if (!(*r->find(key) == *runs.front()->find(key)))
            return false;
    }
    return true;
}

/** "same" / "DIFFERS" for a key that must agree exactly across runs. */
const char *
agreement(const std::vector<const Json *> &runs, const char *key)
{
    return allEqual(runs, key) ? "same" : "DIFFERS";
}

std::size_t
failedRuns(const std::vector<const Json *> &runs)
{
    return std::size_t(
        std::count_if(runs.begin(), runs.end(), [](const Json *r) {
            return !r->find("correct")->asBool();
        }));
}

void
printDistribution(const char *label, const std::vector<double> &v)
{
    std::printf("  %s %.6g [%.6g, %.6g] n=%zu", label, median(v),
                quantile(v, 0.25), quantile(v, 0.75), v.size());
}

} // namespace

Result<Spec>
loadSpec(const std::string &path)
{
    auto doc = readJson(path);
    if (!doc)
        return Result<Spec>::error(doc.message());
    Spec spec;
    for (const auto &[key, list] :
         {std::pair{"end_to_end", &spec.end_to_end},
          std::pair{"per_layer", &spec.per_layer}}) {
        const Json *section = doc.value().find(key);
        if (section == nullptr || !section->isArray())
            return Result<Spec>::error(path + ": no " + key + " list");
        for (const Json &m : section->asArray()) {
            const Json *name = m.find("name");
            const Json *unit = m.find("unit");
            const Json *better = m.find("better");
            const Json *bound = m.find("bound");
            if (!name || !name->isString() || !unit || !unit->isString() ||
                !better || !better->isString() ||
                (bound && !bound->isNumber())) {
                return Result<Spec>::error(path + ": malformed metric in " +
                                           key);
            }
            list->push_back(MetricSpec{name->asString(), unit->asString(),
                                       better->asString() == "lower",
                                       bound ? bound->asDouble() : 0.0});
        }
    }
    return spec;
}

const char *
toString(Verdict verdict)
{
    switch (verdict) {
      case Verdict::kGain: return "gain";
      case Verdict::kNoWorse: return "no-worse";
      case Verdict::kUnresolved: return "unresolved";
      case Verdict::kRegression: return "REGRESSION";
    }
    return "?";
}

Verdict
judge(const std::vector<double> &parent, const std::vector<double> &change,
      bool lower_is_better, double bound)
{
    const auto better = [&](double a, double b) {
        return lower_is_better ? a < b : a > b;
    };
    const std::size_t pairs = std::min(parent.size(), change.size());
    const double mp = median(parent);
    const double mc = median(change);
    if (pairs > 0 && wins(parent, change, lower_is_better) * 10 >= pairs * 9 &&
        better(mc, mp) && std::abs(mc - mp) > iqr(parent))
        return Verdict::kGain;

    const double allowed = bound * std::abs(mp);
    if (std::max(iqr(parent), iqr(change)) > allowed) {
        const bool every_run_better = std::all_of(
            change.begin(), change.end(), [&](double c) {
                return std::all_of(parent.begin(), parent.end(),
                                   [&](double p) { return better(c, p); });
            });
        return every_run_better ? Verdict::kNoWorse : Verdict::kUnresolved;
    }
    const double worse = lower_is_better ? mc - mp : mp - mc;
    return worse <= allowed ? Verdict::kNoWorse : Verdict::kRegression;
}

int
report(const std::string &dir, const Spec &spec)
{
    const std::vector<Json> records = loadRecords(dir);
    int status = 0;
    for (const std::string &workload : workloadNames()) {
        const auto runs = runsOf(records, workload, false);
        if (!runs.empty()) {
            const std::size_t failed = failedRuns(runs);
            status |= failed ? 1 : 0;
            std::printf("== %s: %zu untraced runs, %zu failed\n",
                        workload.c_str(), runs.size(), failed);
            for (const MetricSpec &m : spec.end_to_end) {
                const auto v = valuesOf(runs, m.name);
                std::printf("%-18s %-6s", m.name.c_str(), m.unit.c_str());
                printDistribution("median [q1, q3]", v);
                std::printf("  spread %.2f%% (bound %.0f%%)\n",
                            100.0 * iqr(v) / median(v), 100.0 * m.bound);
            }
            if (const auto v = valuesOf(runs, "events_per_s"); !v.empty()) {
                std::printf("%-18s %-6s", "events_per_s", "1/s");
                printDistribution("median [q1, q3]", v);
                std::printf("\n");
            }
            std::printf("exact %s (%s in every run)\n",
                        runs.front()->find("exact")->dump().c_str(),
                        agreement(runs, "exact"));
            std::printf("outputs_digest %s (%s in every run)\n",
                        runs.front()->find("outputs_digest")->asString().c_str(),
                        agreement(runs, "outputs_digest"));
        }
        const auto traced = runsOf(records, workload, true);
        if (traced.empty())
            continue;
        status |= failedRuns(traced) ? 1 : 0;
        const Json &last = *traced.back();
        const Json *coverage = last.find("trace_coverage");
        std::printf("-- %s per-layer (traced run, spans cover %.1f%%)\n",
                    workload.c_str(),
                    coverage && coverage->isNumber()
                        ? 100.0 * coverage->asDouble()
                        : 0.0);
        for (const MetricSpec &m : spec.per_layer) {
            const Json *v = last.find("metrics")->find(m.name);
            std::printf("  %-30s %14.6g %s\n", m.name.c_str(),
                        v ? v->find("value")->asDouble() : 0.0, m.unit.c_str());
        }
    }
    return status;
}

int
compare(const std::string &parent_dir, const std::string &change_dir,
        const Spec &spec)
{
    const std::vector<Json> parent = loadRecords(parent_dir);
    const std::vector<Json> change = loadRecords(change_dir);
    int status = 0;

    std::printf("%-15s", "workload");
    for (const MetricSpec &m : spec.end_to_end)
        std::printf(" %-22s", m.name.c_str());
    std::printf(" %-10s %s\n", "exact", "outputs_digest");
    for (const std::string &workload : workloadNames()) {
        const auto p = runsOf(parent, workload, false);
        const auto c = runsOf(change, workload, false);
        if (p.empty() || c.empty())
            continue;
        if (failedRuns(p) || failedRuns(c))
            status = 1;
        std::printf("%-15s", workload.c_str());
        for (const MetricSpec &m : spec.end_to_end) {
            const auto pv = valuesOf(p, m.name);
            const auto cv = valuesOf(c, m.name);
            const Verdict v = judge(pv, cv, m.lower_is_better, m.bound);
            if (v == Verdict::kRegression)
                status = 1;
            char cell[64];
            std::snprintf(cell, sizeof(cell), "%s %+.1f%%", toString(v),
                          100.0 * (median(cv) / median(pv) - 1.0));
            std::printf(" %-22s", cell);
        }
        std::vector<const Json *> both = p;
        both.insert(both.end(), c.begin(), c.end());
        if (allEqual(both, "seed")) {
            std::printf(" %-10s %s\n", agreement(both, "exact"),
                        agreement(both, "outputs_digest"));
        } else {
            std::printf(" %-10s %s\n", "n/a-seeds", "n/a-seeds");
        }
    }

    std::printf("\nparent vs change, median [q1, q3]:\n");
    for (const std::string &workload : workloadNames()) {
        const auto p = runsOf(parent, workload, false);
        const auto c = runsOf(change, workload, false);
        if (p.empty() || c.empty())
            continue;
        for (const MetricSpec &m : spec.end_to_end) {
            const auto pv = valuesOf(p, m.name);
            const auto cv = valuesOf(c, m.name);
            std::printf("%-15s %-15s", workload.c_str(), m.name.c_str());
            printDistribution("parent", pv);
            printDistribution("change", cv);
            std::printf("  change wins %zu/%zu pairs\n",
                        wins(pv, cv, m.lower_is_better),
                        std::min(pv.size(), cv.size()));
        }
    }
    return status;
}

} // namespace dhisq::bench
