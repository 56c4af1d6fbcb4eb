#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace fhmip {

/// Opaque handle for a scheduled event; used for cancellation.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Deterministic single-threaded discrete-event scheduler.
///
/// Events at the same timestamp execute in scheduling order (FIFO), which is
/// the property protocol state machines in this library rely on.
///
/// Storage is a slab of generation-tagged slots plus cells that carry the
/// ordering key inline: each cell is (time, issue sequence, slot index,
/// FIFO), so ordering compares cells and never loads a slot. A slot holds
/// only the action, its generation and its flags. An EventId packs the slot
/// index and the slot's generation at issue time, so `pending()` and
/// `cancel()` are O(1) slot loads and stale handles from a reused slot fail
/// the generation check.
///
/// The cells are queued by delay class. Nearly every event is `now + d` for
/// one of a few fixed delays `d` (serialisation, propagation, a CBR interval,
/// the WLAN tick), and since `now` never decreases and the sequence always
/// increases, the cells of one delay arrive already in (time, seq) order. So
/// each recurring delay gets its own ring FIFO, and a small 4-ary "head"
/// heap holds only the front cell of each non-empty FIFO: a push behind a
/// non-empty FIFO does no heap work at all. A delay earns a FIFO by
/// repetition (its kAdmitAfter-th sighting in a direct-mapped probe table, up
/// to kMaxFifos FIFOs); a cell of any other delay is "loose" and sits in the
/// head heap itself. A pop takes the head-heap root, and refills it from the
/// root's FIFO if it has one. Cancellation is lazy: the slot is flagged, and
/// its cell is skipped and the slot recycled when the cell reaches the root.
class Scheduler {
 public:
  using Action = std::function<void()>;

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t`. Scheduling in the past is clamped
  /// to `now()` (the event still runs, after currently pending events).
  EventId schedule_at(SimTime t, Action fn);

  /// Schedules `fn` at `now() + delay`.
  EventId schedule_in(SimTime delay, Action fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event. Cancelling an already-run or invalid id is a
  /// harmless no-op, so callers can keep stale handles.
  void cancel(EventId id);

  /// True if `id` is still pending (scheduled, not yet run, not cancelled).
  bool pending(EventId id) const;

  /// Runs events until the queue is empty or `max_events` have run.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events with timestamp <= `t` (including events scheduled at
  /// <= `t` by events already running inside this call), then advances the
  /// clock to `t`.
  std::size_t run_until(SimTime t);

  /// Executes exactly one event if available. Returns false on empty queue.
  bool step();

  std::size_t queue_size() const { return live_; }
  bool empty() const { return live_ == 0; }
  std::uint64_t events_executed() const { return executed_; }

  /// Runs the slab/queue consistency audits (FHMIP_AUDIT; no-op at audit
  /// level 0). Exposed so tests and long scenarios can sweep.
  void audit_invariants() const;

 private:
  friend struct SchedulerTestPeer;  // queue-shape probes for unit tests

  /// One slab entry. A slot not on the free list is "armed": it owns an
  /// action and is named by exactly one FIFO cell or loose cell. `gen`
  /// counts reuses of the slot; handles from a previous occupancy no longer
  /// match it.
  struct Slot {
    Action fn;
    std::uint32_t gen = 0;
    bool armed = false;
    bool cancelled = false;
  };

  /// One queued cell: the armed slot's ordering key, kept inline so ordering
  /// touches only the queue arrays. `seq` is the issue order, the same-time
  /// FIFO tiebreaker. `fifo` is the delay-class FIFO that holds the cell, or
  /// kNoFifo for a loose cell; a head-heap cell of a FIFO is a copy of its
  /// FIFO's front.
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t fifo;
  };

  /// The cells of one delay class in (time, seq) order: a ring whose
  /// capacity is a power of two. It doubles when full and never shrinks.
  struct Fifo {
    std::vector<Entry> ring;
    std::size_t head = 0;
    std::size_t size = 0;
  };

  /// Open-addressed index from a delay to its FIFO; `delay_ns < 0` is empty.
  struct FifoKey {
    std::int64_t delay_ns = -1;
    std::uint32_t fifo = 0;
  };

  static constexpr std::uint32_t kNoFifo = 0xFFFFFFFFu;
  /// A delay gets a FIFO on this sighting. One-shot delays (set-up's
  /// staggered flow starts, jittered timers) never reach it.
  static constexpr std::uint32_t kAdmitAfter = 4;
  static constexpr std::size_t kMaxFifos = 64;
  static constexpr std::size_t kMinRing = 16;  // a new FIFO's first ring
  static constexpr int kFifoIndexBits = 8;      // 256 keys for <= 64 FIFOs
  static constexpr int kProbeBits = 10;         // 1024 sightings
  /// A probe-table entry packs a tag of the delay's hash with its
  /// sightings so far, minus one, in the low bits.
  static constexpr std::uint32_t kSeenMask = 3;
  static_assert(kAdmitAfter >= 2 && kAdmitAfter - 2 <= kSeenMask);

  static constexpr std::uint32_t decode_slot(EventId id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1;
  }
  static constexpr std::uint32_t decode_gen(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static constexpr EventId encode(std::uint32_t slot, std::uint32_t gen) {
    // slot+1 keeps every valid id distinct from kInvalidEvent (0).
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }

  /// (time, seq) dispatch order between two cells.
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  /// The head heap's 4-ary sifts: `heap_push` sifts a new cell up,
  /// `heap_replace_top` puts `e` at the root and sifts it down, `heap_pop`
  /// removes the root.
  void heap_push(const Entry& e);
  void heap_replace_top(const Entry& e);
  void heap_pop();

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);

  /// The FIFO for events `delay_ns` after now, or kNoFifo.
  std::uint32_t fifo_for(std::int64_t delay_ns);
  /// Counts a sighting of a delay that has no FIFO and gives it one on its
  /// kAdmitAfter-th; returns the FIFO or kNoFifo.
  std::uint32_t admit(std::int64_t delay_ns);
  void enqueue(const Entry& e);
  /// Drops the front cell of FIFO `i`, whose copy is the head-heap root.
  void pop_fifo_front(std::uint32_t i);

  /// Pops the earliest non-cancelled action with timestamp <= `limit`,
  /// recycling any cancelled slots it skips past. The single dequeue path:
  /// `step`/`run` pass an unbounded limit, `run_until` passes `t`.
  bool pop_runnable(SimTime limit, SimTime& at_out, Action& fn_out);

  /// Advances the clock to `at`, counts the event and runs `fn`. The single
  /// dispatch path of `step` and `run_until`.
  void dispatch(SimTime at, Action& fn);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // recycled slot indices
  std::vector<Fifo> fifos_;          // one per admitted delay class
  std::vector<Entry> heads_;  // 4-ary heap: non-empty FIFO fronts, loose cells
  std::vector<FifoKey> fifo_index_ =
      std::vector<FifoKey>(std::size_t{1} << kFifoIndexBits);
  std::vector<std::uint32_t> sightings_ =
      std::vector<std::uint32_t>(std::size_t{1} << kProbeBits);
  std::size_t live_ = 0;             // armed and not cancelled
  std::uint64_t next_seq_ = 1;
  SimTime now_;
  std::uint64_t executed_ = 0;
};

}  // namespace fhmip
