#include "sim/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/check.hpp"

namespace fhmip {

namespace {
constexpr SimTime kNoLimit = SimTime::nanos(
    std::numeric_limits<std::int64_t>::max());
}  // namespace

std::uint32_t Scheduler::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

// The push and pop helpers are `inline` so that schedule_at and pop_runnable
// each compile to one function: called out of line they cost
// BM_SchedulerScatter, whose every cell is loose, about 10%.
inline void Scheduler::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  ++s.gen;  // stale handles to this occupancy stop matching
  s.armed = false;
  s.cancelled = false;
  s.fn = nullptr;
  free_.push_back(idx);
}

EventId Scheduler::schedule_at(SimTime t, Action fn) {
  if (t < now_) t = now_;
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  s.armed = true;
  s.cancelled = false;
  enqueue(Entry{t, next_seq_++, idx, fifo_for((t - now_).ns())});
  ++live_;
  return encode(idx, s.gen);
}

void Scheduler::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const std::uint32_t idx = decode_slot(id);
  if (idx >= slots_.size()) return;
  Slot& s = slots_[idx];
  if (!s.armed || s.gen != decode_gen(id) || s.cancelled) return;
  s.cancelled = true;
  s.fn = nullptr;  // release captured state eagerly
  FHMIP_AUDIT("sched", live_ > 0);
  --live_;
}

bool Scheduler::pending(EventId id) const {
  if (id == kInvalidEvent) return false;
  const std::uint32_t idx = decode_slot(id);
  if (idx >= slots_.size()) return false;
  const Slot& s = slots_[idx];
  return s.armed && s.gen == decode_gen(id) && !s.cancelled;
}

inline void Scheduler::heap_push(const Entry& e) {
  std::size_t pos = heads_.size();
  heads_.push_back(e);
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!earlier(e, heads_[parent])) break;
    heads_[pos] = heads_[parent];
    pos = parent;
  }
  heads_[pos] = e;
}

inline void Scheduler::heap_replace_top(const Entry& e) {
  const std::size_t n = heads_.size();
  std::size_t pos = 0;
  for (;;) {
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heads_[c], heads_[best])) best = c;
    }
    if (!earlier(heads_[best], e)) break;
    heads_[pos] = heads_[best];
    pos = best;
  }
  heads_[pos] = e;
}

inline void Scheduler::heap_pop() {
  const Entry last = heads_.back();
  heads_.pop_back();
  if (!heads_.empty()) heap_replace_top(last);
}

namespace {
// Fibonacci hashing: delay * 2^64/phi. Delays are mostly multiples of 1 us,
// which its top bits spread evenly.
std::uint64_t delay_hash(std::int64_t delay_ns) {
  return static_cast<std::uint64_t>(delay_ns) * 0x9E3779B97F4A7C15ull;
}
}  // namespace

inline std::uint32_t Scheduler::fifo_for(std::int64_t delay_ns) {
  const std::size_t mask = fifo_index_.size() - 1;
  for (std::size_t i = delay_hash(delay_ns) >> (64 - kFifoIndexBits);;
       i = (i + 1) & mask) {
    const FifoKey& k = fifo_index_[i];
    if (k.delay_ns == delay_ns) return k.fifo;
    if (k.delay_ns < 0) return admit(delay_ns);
  }
}

std::uint32_t Scheduler::admit(std::int64_t delay_ns) {
  // Two delays with the same slot and tag share a count; that only admits a
  // delay early, which costs a FIFO and never changes dispatch order.
  const std::uint64_t h = delay_hash(delay_ns);
  std::uint32_t& entry = sightings_[h >> (64 - kProbeBits)];
  const std::uint32_t tag = static_cast<std::uint32_t>(h) & ~kSeenMask;
  if ((entry & ~kSeenMask) != tag) {
    entry = tag;  // first sighting
    return kNoFifo;
  }
  const std::uint32_t seen = (entry & kSeenMask) + 1;  // earlier sightings
  if (seen + 1 < kAdmitAfter) {
    entry = tag | seen;
    return kNoFifo;
  }
  if (fifos_.size() == kMaxFifos) return kNoFifo;
  const auto fifo = static_cast<std::uint32_t>(fifos_.size());
  fifos_.emplace_back();
  const std::size_t mask = fifo_index_.size() - 1;
  std::size_t i = delay_hash(delay_ns) >> (64 - kFifoIndexBits);
  while (fifo_index_[i].delay_ns >= 0) i = (i + 1) & mask;
  fifo_index_[i] = FifoKey{delay_ns, fifo};
  return fifo;
}

inline void Scheduler::enqueue(const Entry& e) {
  if (e.fifo == kNoFifo) {
    heap_push(e);
    return;
  }
  // `e` is no earlier than any cell already in its FIFO: it is now + d with
  // the clock never moving back, and its seq is the newest. So only a cell
  // that starts an empty FIFO changes a front and enters the head heap.
  Fifo& f = fifos_[e.fifo];
  if (f.size == f.ring.size()) {
    std::vector<Entry> bigger(
        std::max<std::size_t>(kMinRing, f.ring.size() * 2));
    for (std::size_t k = 0; k < f.size; ++k) {
      bigger[k] = f.ring[(f.head + k) & (f.ring.size() - 1)];
    }
    f.ring.swap(bigger);
    f.head = 0;
  }
  f.ring[(f.head + f.size) & (f.ring.size() - 1)] = e;
  if (f.size++ == 0) heap_push(e);
}

inline void Scheduler::pop_fifo_front(std::uint32_t i) {
  Fifo& f = fifos_[i];
  f.head = (f.head + 1) & (f.ring.size() - 1);
  if (--f.size == 0) {
    heap_pop();
  } else {
    heap_replace_top(f.ring[f.head]);
  }
}

bool Scheduler::pop_runnable(SimTime limit, SimTime& at_out, Action& fn_out) {
  while (!heads_.empty()) {
    const Entry top = heads_[0];
    Slot& s = slots_[top.slot];
    const bool cancelled = s.cancelled;
    if (!cancelled) {
      if (top.at > limit) return false;
      at_out = top.at;
      fn_out = std::move(s.fn);
      FHMIP_AUDIT("sched", live_ > 0);
      --live_;
    }
    release_slot(top.slot);
    if (top.fifo == kNoFifo) {
      heap_pop();
    } else {
      pop_fifo_front(top.fifo);
    }
    if (!cancelled) return true;
  }
  return false;
}

void Scheduler::dispatch(SimTime at, Action& fn) {
  // The clock only moves forward: schedule_at clamps past times to now(),
  // so a popped event timestamped before now_ means heap-order corruption.
  FHMIP_AUDIT_MSG("sched", at >= now_,
                  "event at " + at.to_string() + " before clock " +
                      now_.to_string());
  now_ = at;
  ++executed_;
  fn();
}

bool Scheduler::step() {
  SimTime at;
  Action fn;
  if (!pop_runnable(kNoLimit, at, fn)) return false;
  dispatch(at, fn);
  return true;
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::size_t Scheduler::run_until(SimTime t) {
  std::size_t n = 0;
  SimTime at;
  Action fn;
  while (pop_runnable(t, at, fn)) {
    dispatch(at, fn);
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

void Scheduler::audit_invariants() const {
  std::size_t cells = 0;
  for (const Entry& e : heads_) cells += e.fifo == kNoFifo;
  for (const Fifo& f : fifos_) cells += f.size;
  FHMIP_AUDIT_MSG("sched", live_ <= cells,
                  "live=" + std::to_string(live_) +
                      " cells=" + std::to_string(cells));
  FHMIP_AUDIT_MSG("sched", cells + free_.size() == slots_.size(),
                  "cells=" + std::to_string(cells) +
                      " free=" + std::to_string(free_.size()) +
                      " slots=" + std::to_string(slots_.size()));
  // Level-2 sweeps: recount the live slots; check that each FIFO is in
  // (at, seq) order, that the head heap holds exactly one copy of each
  // non-empty FIFO's front, that it is in 4-ary heap order, and that the
  // FIFO and loose cells name each armed slot exactly once.
#if FHMIP_AUDIT_LEVEL >= 2
  std::size_t armed = 0, live = 0;
  for (const Slot& s : slots_) {
    if (s.armed) {
      ++armed;
      if (!s.cancelled) ++live;
    }
  }
  FHMIP_AUDIT2_MSG("sched", armed == cells,
                   "armed=" + std::to_string(armed) +
                       " cells=" + std::to_string(cells));
  FHMIP_AUDIT2_MSG("sched", live == live_,
                   "recount=" + std::to_string(live) +
                       " live=" + std::to_string(live_));

  // Cells are named "fifo <i> cell <k>" or "loose cell <pos>" in reports;
  // the names are built only on failure.
  const auto cell_name = [](std::uint32_t fifo, std::size_t k) {
    return (fifo == kNoFifo ? std::string("loose")
                            : "fifo " + std::to_string(fifo)) +
           " cell " + std::to_string(k);
  };
  std::vector<bool> named(slots_.size(), false);
  const auto name = [&](const Entry& e, std::uint32_t fifo, std::size_t k) {
    FHMIP_AUDIT2_MSG("sched", e.fifo == fifo,
                     cell_name(fifo, k) + " tagged fifo " +
                         std::to_string(e.fifo));
    const bool is_armed = e.slot < slots_.size() && slots_[e.slot].armed;
    FHMIP_AUDIT2_MSG("sched", is_armed && !named[e.slot],
                     cell_name(fifo, k) + " names slot " +
                         std::to_string(e.slot) +
                         (is_armed ? " twice" : " that is not armed"));
    if (is_armed) named[e.slot] = true;
  };
  std::size_t non_empty = 0;
  for (std::uint32_t i = 0; i < fifos_.size(); ++i) {
    const Fifo& f = fifos_[i];
    if (f.size > 0) ++non_empty;
    FHMIP_AUDIT2_MSG("sched", f.size <= f.ring.size(),
                     "fifo " + std::to_string(i) + " holds " +
                         std::to_string(f.size) + " cells in a ring of " +
                         std::to_string(f.ring.size()));
    for (std::size_t k = 0; k < f.size && k < f.ring.size(); ++k) {
      const Entry& e = f.ring[(f.head + k) & (f.ring.size() - 1)];
      if (k > 0) {
        const Entry& prev = f.ring[(f.head + k - 1) & (f.ring.size() - 1)];
        FHMIP_AUDIT2_MSG("sched", earlier(prev, e),
                         cell_name(i, k) + " out of (at, seq) order");
      }
      name(e, i, k);
    }
  }

  std::size_t fronts = 0;
  std::vector<bool> fronted(fifos_.size(), false);
  for (std::size_t pos = 0; pos < heads_.size(); ++pos) {
    const Entry& e = heads_[pos];
    if (pos > 0) {
      FHMIP_AUDIT2_MSG("sched", !earlier(e, heads_[(pos - 1) / 4]),
                       "head heap order violated at pos " +
                           std::to_string(pos));
    }
    if (e.fifo == kNoFifo) {
      name(e, kNoFifo, pos);
      continue;
    }
    ++fronts;
    const bool valid = e.fifo < fifos_.size() && fifos_[e.fifo].size > 0;
    FHMIP_AUDIT2_MSG("sched", valid && !fronted[e.fifo],
                     "head cell " + std::to_string(pos) + " names fifo " +
                         std::to_string(e.fifo) +
                         (valid ? " twice" : " that is empty or unknown"));
    if (!valid) continue;
    fronted[e.fifo] = true;
    const Fifo& f = fifos_[e.fifo];
    const Entry& front = f.ring[f.head];
    FHMIP_AUDIT2_MSG("sched",
                     e.at == front.at && e.seq == front.seq &&
                         e.slot == front.slot,
                     "head cell " + std::to_string(pos) + " key differs "
                         "from fifo " + std::to_string(e.fifo) + "'s front");
  }
  FHMIP_AUDIT2_MSG("sched", fronts == non_empty,
                   "fifo fronts in head heap=" + std::to_string(fronts) +
                       " non-empty fifos=" + std::to_string(non_empty));
#endif
}

}  // namespace fhmip
