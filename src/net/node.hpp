#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"

namespace fhmip {

/// A network node: addresses, a routing table, local delivery demux.
///
/// Delivery pipeline (`receive`):
///   1. if the destination is one of this node's addresses:
///        a. tunneled packet → decapsulate and re-forward (tunnel endpoint);
///        b. control message → offer to registered control handlers;
///        c. data → port demux.
///   2. otherwise forward: host route → prefix route → default route;
///      TTL is decremented and exhaustion drops the packet.
class Node {
 public:
  /// Handler for control messages. Return true to consume the packet.
  using ControlHandler = std::function<bool(PacketPtr&)>;
  using PortHandler = std::function<void(PacketPtr)>;
  /// Handle for a registered control handler; 0 is never issued.
  using ControlHandlerId = std::uint64_t;

  Node(Simulation& sim, NodeId id, std::string name);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  Simulation& sim() { return sim_; }

  /// Registers an address owned by this node. `advertised` addresses make
  /// the node the routing owner of the address's net (see
  /// Network::compute_routes); mobile hosts register care-of addresses
  /// unadvertised.
  void add_address(Address a, bool advertised = true);
  void remove_address(Address a);
  bool has_address(Address a) const;
  /// First advertised address (the node's "router address").
  Address address() const;
  const std::vector<std::pair<Address, bool>>& addresses() const {
    return addrs_;
  }

  RoutingTable& routes() { return routes_; }
  const RoutingTable& routes() const { return routes_; }

  /// Entry point for packets arriving from links.
  void receive(PacketPtr p);

  /// Entry point for locally originated packets (agents): routed like any
  /// transit packet but without a TTL decrement on the first hop.
  void send(PacketPtr p);

  void register_port(std::uint16_t port, PortHandler h);
  void unregister_port(std::uint16_t port);
  /// Registers a control handler; the returned id removes it again. Agents
  /// that capture `this` MUST remove their handler on destruction, or a
  /// client destroyed before its node leaves a dangling callback.
  ControlHandlerId add_control_handler(ControlHandler h);
  void remove_control_handler(ControlHandlerId id);

  std::uint64_t packets_forwarded() const { return forwarded_; }
  std::uint64_t packets_received_local() const { return received_local_; }
  /// Unclaimed control messages destroyed at this node (kDiscard events).
  std::uint64_t packets_discarded() const { return discarded_; }

 private:
  void forward(PacketPtr p, bool decrement_ttl);
  void deliver_local(PacketPtr p);
  void drop(PacketPtr p, DropReason reason);

  Simulation& sim_;
  NodeId id_;
  std::string name_;
  std::vector<std::pair<Address, bool>> addrs_;
  RoutingTable routes_;
  std::unordered_map<std::uint16_t, PortHandler> ports_;
  std::vector<std::pair<ControlHandlerId, ControlHandler>> control_handlers_;
  ControlHandlerId next_control_handler_id_ = 1;
  std::uint64_t forwarded_ = 0;
  std::uint64_t received_local_ = 0;
  std::uint64_t discarded_ = 0;
};

}  // namespace fhmip
