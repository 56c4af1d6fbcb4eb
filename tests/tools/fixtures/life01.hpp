#pragma once
// LIFE-01 fixture: a this-capturing timer registered without a cancelling
// destructor (positive), the same pattern on a scheduler the class owns by
// value (negative), and on a referenced scheduler with an inline
// suppression. The corpus is analyzed, never compiled, so the types are
// stand-ins.

namespace fix {

class LeakyTicker {
 public:
  void arm() {
    sim_.in(delay_, [this] { fire(); });
  }
  void fire();

 private:
  Simulation& sim_;
  SimTime delay_;
};

class OwningTicker {
 public:
  void arm() {
    // The scheduler is a member: pending events die (unrun) with *this.
    sim_.in(delay_, [this] { fire(); });
  }
  void fire();

 private:
  Simulation sim_;
  SimTime delay_;
};

class JustifiedTicker {
 public:
  void arm() {
    // The referenced simulation is owned by a sibling destroyed first.
    sim_.in(delay_, [this] { fire(); });  // NOLINT-FHMIP(LIFE-01)
  }
  void fire();

 private:
  Simulation& sim_;
  SimTime delay_;
};

class TidyTicker {
 public:
  ~TidyTicker() { sim_.cancel(ev_); }
  void arm() {
    ev_ = sim_.in(delay_, [this] { fire(); });
  }
  void fire();

 private:
  Simulation& sim_;
  SimTime delay_;
  EventId ev_ = kInvalidEvent;
};

}  // namespace fix
