#include "mip/home_agent.hpp"

namespace fhmip {

HomeAgent::HomeAgent(Node& node) : node_(node) {
  node_.routes().set_prefix_route(
      home_prefix(),
      Route::to([this](PacketPtr p) { intercept(std::move(p)); }));
  ctrl_id_ = node_.add_control_handler(
      [this](PacketPtr& p) { return handle_control(p); });
}

HomeAgent::~HomeAgent() {
  node_.routes().remove_prefix_route(home_prefix());
  node_.remove_control_handler(ctrl_id_);
}

void HomeAgent::intercept(PacketPtr p) {
  Simulation& sim = node_.sim();
  const auto coa = bindings_.lookup(p->dst, sim.now());
  if (!coa) {
    // Host is at home (or unregistered): without a visiting host on this
    // simulated subnet, the packet has nowhere to go.
    sim.stats().record_drop(p->flow, DropReason::kNoRoute);
    trace_packet(sim, TraceKind::kDrop, node_.name().c_str(), *p,
                 DropReason::kNoRoute);
    return;
  }
  ++tunneled_;
  p->encapsulate(*coa);  // IP-within-IP (§2.1.1 stage 3b)
  node_.send(std::move(p));
}

bool HomeAgent::handle_control(PacketPtr& p) {
  const auto* req = std::get_if<RegistrationRequestMsg>(&p->msg);
  if (req == nullptr) return false;
  Simulation& sim = node_.sim();
  if (req->lifetime.is_zero()) {
    bindings_.remove(req->home_addr);
    ++deregistrations_;
  } else {
    bindings_.update(req->home_addr, req->coa, sim.now(), req->lifetime);
    ++registrations_;
  }
  RegistrationReplyMsg rep;
  rep.mh = req->mh;
  rep.home_addr = req->home_addr;
  rep.lifetime = req->lifetime;
  rep.accepted = true;
  // Reply to the sender: the host itself, with a co-located CoA.
  node_.send(make_control(sim, address(), p->src, rep));
  return true;
}

}  // namespace fhmip
