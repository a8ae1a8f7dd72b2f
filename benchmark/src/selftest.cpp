/**
 * @file
 * `dhisq_benchmark selftest`: the order statistics against values Python's
 * statistics.quantiles gives, span self time with nested children, the
 * comparator's rules on synthetic runs, and every output check passing a
 * real result and tripping on a corrupted copy of it.
 */
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "net/topology.hpp"
#include "sweep/grid.hpp"
#include "workloads/generators.hpp"

namespace dhisq::bench {

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

bool
near(double a, double b)
{
    return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

void
statistics()
{
    const std::vector<double> ten = {7, 1, 10, 4, 2, 9, 3, 8, 6, 5};
    expect(near(quantile(ten, 0.25), 2.75) && near(median(ten), 5.5) &&
               near(quantile(ten, 0.75), 8.25),
           "quartiles of 1..10 are 2.75 / 5.5 / 8.25");
    expect(near(iqr(ten), 5.5), "IQR of 1..10 is 5.5");
    expect(near(quantile({1, 2}, 0.25), 0.75) &&
               near(quantile({1, 2}, 0.75), 2.25),
           "two samples extrapolate like Python's exclusive method");
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    expect(near(quantile(hundred, 0.99), 99.99), "p99 of 1..100 is 99.99");
    expect(near(median({7}), 7), "median of one sample is the sample");
}

void
spans()
{
    Tracer t(true);
    const int root = t.add("root", 0, 100, -1, 1);
    const int a = t.add("y", 10, 40, root, 1);
    t.add("z", 15, 25, a, 1);
    t.add("y", 50, 90, root, 1);
    auto self = t.selfSeconds();
    expect(near(self["root"], 30e-9) && near(self["y"], 60e-9) &&
               near(self["z"], 10e-9),
           "self time subtracts only direct children, summed per name");

    Tracer live(true);
    live.setOp(7);
    {
        auto outer = live.scope("outer");
        { auto inner = live.scope("inner"); }
        auto second = live.scope("second");
        second.rename("renamed");
    }
    const auto &s = live.spans();
    expect(s.size() == 3 && s[0].parent == -1 && s[1].parent == 0 &&
               s[2].parent == 0 && std::string(s[2].name) == "renamed" &&
               s[1].end_ns <= s[2].start_ns && s[2].end_ns <= s[0].end_ns &&
               s[0].op == 7,
           "scopes nest, close in order and carry the op id");

    Tracer off(false);
    { auto span = off.scope("x"); }
    off.count("n", 1);
    expect(off.spans().empty() && off.counts().empty(),
           "a disabled tracer records nothing");
}

void
comparator()
{
    const std::vector<double> parent = {100, 101, 99, 100, 102,
                                        98,  100, 101, 99, 100};
    const auto scaled = [&](double f) {
        std::vector<double> v;
        for (const double x : parent)
            v.push_back(x * f);
        return v;
    };
    expect(judge(parent, scaled(0.9), true, 0.1) == Verdict::kGain,
           "10/10 wins by more than the IQR is a gain");
    expect(judge(parent, scaled(1.05), true, 0.1) == Verdict::kNoWorse,
           "5% worse within a 10% bound is no worse");
    expect(judge(parent, scaled(1.2), true, 0.1) == Verdict::kRegression,
           "20% worse beyond a 10% bound is a regression");
    expect(judge(parent, scaled(1.2), false, 0.1) == Verdict::kGain,
           "higher-is-better metrics flip the direction");

    std::vector<double> two_losses = scaled(0.9);
    two_losses[0] = two_losses[1] = 200;
    expect(judge(parent, two_losses, true, 0.5) == Verdict::kNoWorse,
           "8/10 wins is not a gain");

    const std::vector<double> noisy = {70, 130, 80, 120, 90,
                                       110, 75, 125, 85, 115};
    expect(judge(noisy, noisy, true, 0.1) == Verdict::kUnresolved,
           "spread wider than the bound is unresolved");
    const std::vector<double> all_better(10, 69);
    expect(judge(noisy, all_better, true, 0.1) != Verdict::kUnresolved &&
               judge(noisy, all_better, true, 0.1) != Verdict::kRegression,
           "every change run better than every parent run resolves");
}

void
checks()
{
    sweep::CircuitSpec spec;
    spec.kind = sweep::CircuitSpec::Kind::kFigure15;
    spec.name = "qft_n30";
    spec.expand_fraction = 1.0;
    const compiler::Circuit circuit = spec.build();

    compiler::CompilerConfig bisp;
    const sweep::ExecResult point = sweep::executeWith(circuit, bisp);
    expect(checkPoint(point, compiler::SyncScheme::kBisp).empty(),
           "fig15: a healthy BISP point passes");
    sweep::ExecResult corrupt = point;
    corrupt.deadlock = true;
    expect(!checkPoint(corrupt, compiler::SyncScheme::kBisp).empty(),
           "fig15: a deadlocked point fails");
    corrupt = point;
    corrupt.coincidence = 1;
    expect(!checkPoint(corrupt, compiler::SyncScheme::kBisp).empty() &&
               checkPoint(corrupt, compiler::SyncScheme::kLockStep).empty(),
           "fig15: a coincidence break fails under BISP, not lock-step");

    const net::Topology small = net::Topology::build(
        sweep::shapeTopology(net::TopologyShape::kTorus, 4));
    compiler::CompilerConfig unrouted;
    expect(!checkCompile(compiler::Compiler(small, unrouted).tryCompile(circuit))
                .empty(),
           "compile: an over-capacity circuit without routing fails");
    compiler::CompilerConfig routed;
    routed.routing = compiler::RoutingMode::kSwap;
    expect(checkCompile(compiler::Compiler(small, routed).tryCompile(circuit))
               .empty(),
           "compile: the same circuit with SWAP routing passes");

    service::JobRequest request;
    request.circuit.kind = sweep::CircuitSpec::Kind::kVqeSweep;
    request.circuit.vqe.qubits = 6;
    request.state_vector = true;
    service::JobServer::Options on, off;
    off.cache = compiler::CacheMode::kOff;
    const service::JobResult job = service::JobServer(on).submit({request})[0];
    const service::JobResult replay =
        service::JobServer(off).submit({request})[0];
    expect(checkJob(job).empty(), "service: a finished job passes");
    service::JobResult failed = job;
    failed.ok = false;
    expect(!checkJob(failed).empty(), "service: a failed job fails");
    const Hash128 replayed = measurementDigest(replay.measurements);
    expect(checkReplay(job.id, measurementDigest(job.measurements), replayed)
               .empty(),
           "service: a job matching its cache-off replay passes");
    auto flipped = job.measurements;
    flipped.at(0).bit ^= 1;
    expect(!checkReplay(job.id, measurementDigest(flipped), replayed).empty(),
           "service: one flipped measurement bit fails the replay check");

    workloads::VqeSweepOptions vqe;
    vqe.qubits = 6;
    const compiler::Circuit ansatz = workloads::vqeSweep(vqe);
    sweep::ExecResult run = sweep::executeWith(ansatz, bisp, true);
    expect(checkMeasurementCount(run, measurementsIn(ansatz)).empty(),
           "vqe: a run with every measurement passes");
    run.measurements.pop_back();
    expect(!checkMeasurementCount(run, measurementsIn(ansatz)).empty(),
           "vqe: a run missing one measurement fails");
}

} // namespace

int
selftest()
{
    statistics();
    spans();
    comparator();
    checks();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? 1 : 0;
}

} // namespace dhisq::bench
