#include "sweep/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace dhisq::sweep {

Result<CliOptions>
parseCli(int argc, char **argv)
{
    CliOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--json") {
            if (i + 1 >= argc)
                return Result<CliOptions>::error("--json needs a path");
            opts.json_path = argv[++i];
        } else if (arg == "--threads") {
            if (i + 1 >= argc)
                return Result<CliOptions>::error("--threads needs a count");
            char *end = nullptr;
            const long n = std::strtol(argv[++i], &end, 10);
            if (end == nullptr || *end != '\0' || n < 1 || n > 1024) {
                return Result<CliOptions>::error(
                    std::string("bad --threads value: ") + argv[i]);
            }
            opts.threads = static_cast<unsigned>(n);
        } else if (arg == "--topology") {
            if (i + 1 >= argc)
                return Result<CliOptions>::error("--topology needs a shape");
            const std::string_view name = argv[++i];
            if (name == "all") {
                opts.topologies = net::allTopologyShapes();
                continue;
            }
            net::TopologyShape shape;
            if (!net::parseTopologyShape(name, shape)) {
                return Result<CliOptions>::error(
                    std::string("unknown --topology shape: ") + argv[i]);
            }
            if (std::find(opts.topologies.begin(), opts.topologies.end(),
                          shape) == opts.topologies.end()) {
                opts.topologies.push_back(shape);
            }
        } else if (arg == "--placement") {
            if (i + 1 >= argc) {
                return Result<CliOptions>::error(
                    "--placement needs a strategy");
            }
            const std::string_view name = argv[++i];
            if (name == "all") {
                opts.placements = place::allPlacementStrategies();
                continue;
            }
            place::PlacementStrategy strategy;
            if (!place::parsePlacementStrategy(name, strategy)) {
                return Result<CliOptions>::error(
                    std::string("unknown --placement strategy: ") + argv[i]);
            }
            if (std::find(opts.placements.begin(), opts.placements.end(),
                          strategy) == opts.placements.end()) {
                opts.placements.push_back(strategy);
            }
        } else if (arg == "--latency-model") {
            if (i + 1 >= argc) {
                return Result<CliOptions>::error(
                    "--latency-model needs a model");
            }
            const std::string_view name = argv[++i];
            if (name == "all") {
                opts.latency_models = net::allLinkLatencyModels();
                continue;
            }
            net::LinkLatencyModel model;
            if (!net::parseLinkLatencyModel(name, model)) {
                return Result<CliOptions>::error(
                    std::string("unknown --latency-model: ") + argv[i]);
            }
            if (std::find(opts.latency_models.begin(),
                          opts.latency_models.end(),
                          model) == opts.latency_models.end()) {
                opts.latency_models.push_back(model);
            }
        } else if (arg == "--clustering") {
            if (i + 1 >= argc) {
                return Result<CliOptions>::error(
                    "--clustering needs a clustering");
            }
            const std::string_view name = argv[++i];
            if (name == "all") {
                opts.clusterings = net::allRouterClusterings();
                continue;
            }
            net::RouterClustering clustering;
            if (!net::parseRouterClustering(name, clustering)) {
                return Result<CliOptions>::error(
                    std::string("unknown --clustering: ") + argv[i]);
            }
            if (std::find(opts.clusterings.begin(), opts.clusterings.end(),
                          clustering) == opts.clusterings.end()) {
                opts.clusterings.push_back(clustering);
            }
        } else if (arg == "--routing") {
            if (i + 1 >= argc)
                return Result<CliOptions>::error("--routing needs a mode");
            const std::string_view name = argv[++i];
            if (name == "all") {
                opts.routings = compiler::allRoutingModes();
                continue;
            }
            compiler::RoutingMode mode;
            if (!compiler::parseRoutingMode(name, mode)) {
                return Result<CliOptions>::error(
                    std::string("unknown --routing mode: ") + argv[i]);
            }
            if (std::find(opts.routings.begin(), opts.routings.end(),
                          mode) == opts.routings.end()) {
                opts.routings.push_back(mode);
            }
        } else if (arg == "--route-window") {
            if (i + 1 >= argc)
                return Result<CliOptions>::error(
                    "--route-window needs a size");
            char *end = nullptr;
            const long n = std::strtol(argv[++i], &end, 10);
            if (end == nullptr || *end != '\0' || n < 1 || n > 1024) {
                return Result<CliOptions>::error(
                    std::string("bad --route-window value: ") + argv[i]);
            }
            const unsigned window = static_cast<unsigned>(n);
            if (std::find(opts.route_windows.begin(),
                          opts.route_windows.end(),
                          window) == opts.route_windows.end()) {
                opts.route_windows.push_back(window);
            }
        } else if (arg == "--route-feedback") {
            if (i + 1 >= argc)
                return Result<CliOptions>::error(
                    "--route-feedback needs on|off");
            const std::string_view name = argv[++i];
            bool feedback;
            if (name == "on") {
                feedback = true;
            } else if (name == "off") {
                feedback = false;
            } else {
                return Result<CliOptions>::error(
                    std::string("bad --route-feedback value (on|off): ") +
                    argv[i]);
            }
            if (std::find(opts.route_feedbacks.begin(),
                          opts.route_feedbacks.end(),
                          feedback) == opts.route_feedbacks.end()) {
                opts.route_feedbacks.push_back(feedback);
            }
        } else if (arg == "--backend") {
            if (i + 1 >= argc)
                return Result<CliOptions>::error("--backend needs a tier");
            const std::string_view name = argv[++i];
            if (name == "all") {
                opts.backends = q::allBackendTiers();
                continue;
            }
            q::BackendTier tier;
            if (!q::parseBackendTier(name, tier)) {
                return Result<CliOptions>::error(
                    std::string("unknown --backend tier: ") + argv[i]);
            }
            if (std::find(opts.backends.begin(), opts.backends.end(),
                          tier) == opts.backends.end()) {
                opts.backends.push_back(tier);
            }
        } else if (arg == "--fusion") {
            if (i + 1 >= argc)
                return Result<CliOptions>::error("--fusion needs a mode");
            const std::string_view name = argv[++i];
            if (name == "all") {
                opts.fusions = q::allFusionModes();
                continue;
            }
            q::FusionMode mode;
            if (!q::parseFusionMode(name, mode)) {
                return Result<CliOptions>::error(
                    std::string("unknown --fusion mode: ") + argv[i]);
            }
            if (std::find(opts.fusions.begin(), opts.fusions.end(),
                          mode) == opts.fusions.end()) {
                opts.fusions.push_back(mode);
            }
        } else if (arg == "--policy") {
            if (i + 1 >= argc)
                return Result<CliOptions>::error("--policy needs a policy");
            const std::string_view name = argv[++i];
            if (name == "all") {
                opts.policies = {net::RouterPolicy::Paper,
                                 net::RouterPolicy::Robust};
                continue;
            }
            net::RouterPolicy policy;
            if (!net::parseRouterPolicy(name, policy)) {
                return Result<CliOptions>::error(
                    std::string("unknown --policy: ") + argv[i]);
            }
            if (std::find(opts.policies.begin(), opts.policies.end(),
                          policy) == opts.policies.end()) {
                opts.policies.push_back(policy);
            }
        } else if (arg == "--tree-arity") {
            if (i + 1 >= argc)
                return Result<CliOptions>::error("--tree-arity needs a count");
            char *end = nullptr;
            const long n = std::strtol(argv[++i], &end, 10);
            if (end == nullptr || *end != '\0' || n < 2 || n > 256) {
                return Result<CliOptions>::error(
                    std::string("bad --tree-arity value: ") + argv[i]);
            }
            const unsigned arity = static_cast<unsigned>(n);
            if (std::find(opts.tree_arities.begin(), opts.tree_arities.end(),
                          arity) == opts.tree_arities.end()) {
                opts.tree_arities.push_back(arity);
            }
        } else if (arg == "--cache") {
            if (i + 1 >= argc)
                return Result<CliOptions>::error("--cache needs a mode");
            const std::string_view name = argv[++i];
            if (name == "all") {
                opts.cache_modes = compiler::allCacheModes();
                continue;
            }
            compiler::CacheMode mode;
            if (!compiler::parseCacheMode(name, mode)) {
                return Result<CliOptions>::error(
                    std::string("unknown --cache mode: ") + argv[i]);
            }
            if (std::find(opts.cache_modes.begin(), opts.cache_modes.end(),
                          mode) == opts.cache_modes.end()) {
                opts.cache_modes.push_back(mode);
            }
        } else if (arg == "--results") {
            if (i + 1 >= argc)
                return Result<CliOptions>::error("--results needs a path");
            opts.results_path = argv[++i];
        } else if (arg == "--quick") {
            opts.quick = true;
        } else if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--help" || arg == "-h") {
            return Result<CliOptions>::error("help");
        } else {
            return Result<CliOptions>::error(std::string("unknown flag: ") +
                                             std::string(arg));
        }
    }
    return opts;
}

void
printUsage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [--json <path>] [--threads N] [--quick]\n"
        "          [--topology <shape>]... [--placement <strategy>]...\n"
        "          [--routing <mode>]... [--route-window N]...\n"
        "          [--route-feedback on|off]... [--backend <tier>]...\n"
        "          [--fusion <mode>]... [--latency-model <model>]...\n"
        "          [--clustering <c>]... [--policy <policy>]...\n"
        "          [--tree-arity N]... [--list]\n"
        "  --json <path>      write the dhisq-bench-v1 report "
        "(\"-\" = stdout)\n"
        "  --threads N        sweep worker threads (default 1)\n"
        "  --quick            reduced grid for CI smoke runs\n"
        "  --topology <shape> restrict the topology axis (line, grid, "
        "ring,\n"
        "                     torus, heavy_hex, star or \"all\"; "
        "repeatable;\n"
        "                     grids without the axis ignore it)\n"
        "  --placement <s>    restrict the placement axis (path,\n"
        "                     greedy-affinity, kl-mincut or \"all\"; "
        "repeatable)\n"
        "  --routing <mode>   restrict the qubit-routing axis (none, "
        "swap\n"
        "                     or \"all\"; repeatable)\n"
        "  --route-window N   restrict the routing-lookahead-window axis\n"
        "                     (1 = greedy, bit-identical to the historical\n"
        "                     router; repeatable)\n"
        "  --route-feedback on|off\n"
        "                     restrict the route->place feedback axis\n"
        "                     (repeatable)\n"
        "  --backend <tier>   restrict the functional-backend axis "
        "(auto,\n"
        "                     dense, tableau or \"all\"; repeatable; "
        "auto\n"
        "                     picks tableau for Clifford-only programs)\n"
        "  --fusion <mode>    restrict the lazy 1q gate-fusion axis (off,\n"
        "                     1q or \"all\"; repeatable; dense functional\n"
        "                     backend only, default off)\n"
        "  --latency-model <m> restrict the link-latency axis (uniform,\n"
        "                     distance_scaled, jitter or \"all\"; "
        "repeatable)\n"
        "  --clustering <c>   restrict the router-clustering axis "
        "(id_blocks,\n"
        "                     locality or \"all\"; repeatable)\n"
        "  --policy <p>       restrict the router-policy axis (paper, "
        "robust\n"
        "                     or \"all\"; repeatable)\n"
        "  --tree-arity N     restrict the router fan-out axis "
        "(repeatable)\n"
        "  --cache <mode>     restrict the compile-cache axis (off, "
        "memory,\n"
        "                     disk or \"all\"; repeatable; grids without "
        "the\n"
        "                     axis ignore it)\n"
        "  --results <path>   write the deterministic per-job results\n"
        "                     artifact (measurement streams; benches "
        "compare\n"
        "                     it byte-for-byte across cache modes)\n"
        "  --list             print the expanded grid points, run "
        "nothing\n"
        "Axis flags only restrict grids that sweep that axis; a bench\n"
        "whose grid fixes an axis ignores the flag (check --list).\n",
        prog);
}

CliOptions
parseCliOrExit(int argc, char **argv)
{
    auto parsed = parseCli(argc, argv);
    if (!parsed) {
        if (parsed.message() != "help")
            std::fprintf(stderr, "%s: %s\n", argv[0],
                         parsed.message().c_str());
        printUsage(argv[0]);
        std::exit(parsed.message() == "help" ? 0 : 2);
    }
    return parsed.take();
}

} // namespace dhisq::sweep
