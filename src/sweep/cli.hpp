/**
 * @file
 * Shared command-line handling for the sweep-based bench binaries:
 * `--json <path>` (emit BENCH json, "-" = stdout), `--threads N`
 * (worker pool size), `--quick` (reduced grid for the CI smoke run),
 * axis-selection flags — `--topology <shape>`, `--placement <strategy>`,
 * `--routing <mode>`, `--backend <tier>`, `--latency-model <model>`,
 * `--clustering <c>`, `--policy <policy>`, `--tree-arity N` (all
 * repeatable; the enum-valued ones accept "all") — and `--list` (print
 * the expanded grid points without executing them).
 */
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "compiler/compiler.hpp"
#include "net/router.hpp"
#include "net/topology.hpp"
#include "place/placement.hpp"

namespace dhisq::sweep {

/** Parsed common bench flags. */
struct CliOptions
{
    /** Output path for the JSON report; empty = no JSON. */
    std::string json_path;
    /** Worker threads for the sweep pool. */
    unsigned threads = 1;
    /** Run a reduced grid (CI smoke). */
    bool quick = false;
    /** Print the expanded grid points and exit without running. */
    bool list = false;
    /** Topology-axis selection; empty keeps the bench's default axis. */
    std::vector<net::TopologyShape> topologies;
    /** Placement-axis selection; empty keeps the bench's default axis. */
    std::vector<place::PlacementStrategy> placements;
    /** Latency-model-axis selection; empty keeps the bench's default. */
    std::vector<net::LinkLatencyModel> latency_models;
    /** Router-clustering-axis selection; empty keeps the bench's default. */
    std::vector<net::RouterClustering> clusterings;
    /** Routing-mode-axis selection; empty keeps the bench's default. */
    std::vector<compiler::RoutingMode> routings;
    /** Routing-window-axis selection; empty keeps the bench's default. */
    std::vector<unsigned> route_windows;
    /** Route-feedback-axis selection; empty keeps the bench's default. */
    std::vector<bool> route_feedbacks;
    /** Backend-tier-axis selection; empty keeps the bench's default. */
    std::vector<q::BackendTier> backends;
    /** Fusion-mode-axis selection; empty keeps the bench's default. */
    std::vector<q::FusionMode> fusions;
    /** Router-policy-axis selection; empty keeps the bench's default. */
    std::vector<net::RouterPolicy> policies;
    /** Tree-arity-axis selection; empty keeps the bench's default. */
    std::vector<unsigned> tree_arities;
    /** Compile-cache-mode axis; empty keeps the bench's default axis. */
    std::vector<compiler::CacheMode> cache_modes;
    /** Secondary artifact path for deterministic per-job results (the
     *  measurement-record stream benches byte-compare across cache
     *  modes); empty = not written. */
    std::string results_path;
};

/**
 * Parse the common flags. Unknown flags or malformed values produce an
 * error naming the offending argument; the caller should print usage and
 * exit nonzero.
 */
Result<CliOptions> parseCli(int argc, char **argv);

/** Print the standard usage block for a sweep bench. */
void printUsage(const char *prog);

/**
 * Convenience main-helper: parse or exit(2) with usage on stderr.
 */
CliOptions parseCliOrExit(int argc, char **argv);

} // namespace dhisq::sweep
