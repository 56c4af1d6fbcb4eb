#pragma once

#include <cstdint>
#include <functional>

#include "net/node.hpp"

namespace fhmip {

/// Mobile-host-side mobility client: sends binding updates (HMIPv6 local
/// registration with the MAP) and MIPv4-style registration requests (home
/// agent), and tracks acknowledgements.
class MobileIpClient {
 public:
  MobileIpClient(Node& node, Address regional_addr, Address map_addr);
  ~MobileIpClient();

  MobileIpClient(const MobileIpClient&) = delete;
  MobileIpClient& operator=(const MobileIpClient&) = delete;

  /// Binds the regional address to `lcoa` at the MAP (§2.2.1 step 4).
  void send_binding_update(Address lcoa, SimTime lifetime);

  /// Adds `lcoa` as a secondary (bicast) binding — simultaneous binding,
  /// §3.1.1. Cleared by the next ordinary binding update.
  void send_simultaneous_binding(Address lcoa, SimTime lifetime);

  /// MIPv4 registration (§2.1.1 stage 2). `via` is where the request is
  /// sent; with a co-located care-of address that is `home_agent` itself.
  void send_registration(Address via, Address home_agent, Address home_addr,
                         Address coa, SimTime lifetime);

  void set_on_binding_ack(std::function<void()> cb) {
    on_binding_ack_ = std::move(cb);
  }
  void set_on_registration_reply(std::function<void(bool)> cb) {
    on_registration_reply_ = std::move(cb);
  }

  Address regional() const { return regional_; }
  std::uint32_t updates_sent() const { return updates_sent_; }
  std::uint32_t acks_received() const { return acks_received_; }
  std::uint32_t registrations_sent() const { return registrations_sent_; }
  bool bound() const { return acks_received_ > 0; }

 private:
  bool handle_control(PacketPtr& p);

  Node& node_;
  Node::ControlHandlerId ctrl_id_ = 0;
  Address regional_;
  Address map_;
  std::function<void()> on_binding_ack_;
  std::function<void(bool)> on_registration_reply_;
  std::uint32_t updates_sent_ = 0;
  std::uint32_t acks_received_ = 0;
  std::uint32_t registrations_sent_ = 0;
};

}  // namespace fhmip
