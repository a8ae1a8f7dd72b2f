#include "net/fabric.hpp"

#include "common/logging.hpp"

namespace dhisq::net {

Fabric::Fabric(const Topology &topo, sim::Scheduler &sched, TelfLog *telf,
               const FabricConfig &config)
    : _topo(topo), _sched(sched), _telf(telf), _config(config),
      _cores(topo.numControllers(), nullptr)
{
    // Instantiate every router of the inter-layer tree and wire the edges.
    _routers.reserve(topo.numRouters());
    for (RouterId r = 0; r < topo.numRouters(); ++r) {
        _routers.push_back(std::make_unique<SyncRouter>(
            topo.router(r), topo, sched, telf, config.policy));
    }
    for (RouterId r = 0; r < topo.numRouters(); ++r) {
        SyncRouter *router = _routers[r].get();
        router->setForwardUpFn(
            [this, r](RouterId parent, RouterId target, Cycle t_max) {
                _sched.scheduleIn(_topo.hopLatency(),
                                  [this, parent, r, target, t_max] {
                                      _routers[parent]->onRouterRequest(
                                          r, target, t_max);
                                  });
            });
        router->setBroadcastDownFn([this](RouterId child, Cycle t_final) {
            _sched.scheduleIn(_topo.hopLatency(), [this, child, t_final] {
                _routers[child]->onParentNotify(t_final);
            });
        });
        router->setNotifyControllerFn(
            [this](ControllerId child, Cycle t_final) {
                _sched.scheduleIn(_topo.hopLatency(), [this, child, t_final] {
                    coreAt(child)->deliverRegionNotify(t_final);
                });
            });
    }
}

void
Fabric::registerCore(core::HisqCore *c)
{
    DHISQ_ASSERT(c->id() < _cores.size(), "controller id out of range: ",
                 c->id());
    DHISQ_ASSERT(_cores[c->id()] == nullptr, "duplicate controller id ",
                 c->id());
    _cores[c->id()] = c;
}

core::HisqCore *
Fabric::coreAt(ControllerId id)
{
    DHISQ_ASSERT(id < _cores.size() && _cores[id] != nullptr,
                 "no core registered for controller ", id);
    return _cores[id];
}

core::CoreHooks
Fabric::hooksFor(ControllerId id)
{
    core::CoreHooks hooks;
    hooks.on_send = [this, id](ControllerId dst, std::uint32_t payload) {
        if (dst == kBroadcastDst)
            broadcast(id, payload);
        else
            sendMessage(id, dst, payload);
    };
    hooks.sync.send_nearby_signal = [this, id](ControllerId peer) {
        const Cycle latency = _topo.neighborLatency(id, peer);
        _stats.inc("nearby_signals");
        _sched.scheduleIn(latency, [this, id, peer] {
            coreAt(peer)->deliverSyncSignal(id);
        });
    };
    hooks.sync.send_region_request = [this, id](RouterId target, Cycle t_i) {
        const RouterId parent = _topo.parentRouter(id);
        _stats.inc("region_requests");
        _sched.scheduleIn(_topo.hopLatency(), [this, id, parent, target,
                                               t_i] {
            _routers[parent]->onControllerRequest(id, target, t_i);
        });
    };
    hooks.sync.link_latency = [this, id](ControllerId peer) {
        const auto actual =
            std::int64_t(_topo.neighborLatency(id, peer));
        const auto believed = actual + _config.nearby_calibration_error;
        DHISQ_ASSERT(believed > 0, "calibration error yields latency <= 0");
        return Cycle(believed);
    };
    return hooks;
}

Cycle
Fabric::hubLatency() const
{
    // The topology owns the hub constant (the paper's optimistic baseline
    // assumption, Section 6.4.3): explicit star spokes are generated from
    // the same field, so abstract and explicit hubs always agree.
    return _topo.config().hub_latency;
}

void
Fabric::sendMessage(ControllerId src, ControllerId dst,
                    std::uint32_t payload)
{
    const Cycle latency = _config.star_messages
                              ? 2 * hubLatency()
                              : _topo.messageLatency(src, dst);
    _stats.inc("messages");
    _stats.sample("message_latency", double(latency));
    _sched.scheduleIn(latency, [this, src, dst, payload] {
        coreAt(dst)->deliverMessage(src, payload);
    });
}

void
Fabric::broadcast(ControllerId src, std::uint32_t payload)
{
    const Cycle latency = 2 * hubLatency();
    _stats.inc("broadcasts");
    _sched.scheduleIn(latency, [this, src, payload] {
        for (core::HisqCore *c : _cores) {
            if (c != nullptr)
                c->deliverMessage(src, payload);
        }
    });
}

SyncRouter &
Fabric::router(RouterId id)
{
    DHISQ_ASSERT(id < _routers.size(), "router out of range");
    return *_routers[id];
}

} // namespace dhisq::net
