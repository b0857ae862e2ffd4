// Deterministic event queue for the discrete-event simulation engine.
//
// A binary min-heap ordered by the explicit key (time, priority, sequence):
// earlier events first, then lower priority values (the simulator assigns one
// priority per handler class, which fixes the handler order for same-instant
// events), then insertion sequence. Because the full
// key is unique — the sequence number is a monotone push counter — the pop
// order is totally determined by the pushes and never depends on heap
// internals, iteration order, or platform. That property is what lets the
// simulator promise byte-identical runs per seed.

#ifndef POLLUX_SIM_ENGINE_EVENT_QUEUE_H_
#define POLLUX_SIM_ENGINE_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pollux {

template <typename Payload>
class EventQueue {
 public:
  struct Entry {
    double time = 0.0;
    int priority = 0;
    uint64_t seq = 0;
    Payload payload{};
  };

  void Push(double time, int priority, Payload payload) {
    heap_.push_back(Entry{time, priority, next_seq_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), After);
  }

  const Entry& Top() const { return heap_.front(); }

  Entry Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), After);
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    return entry;
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  // Total pushes over the queue's lifetime (the next sequence number).
  uint64_t pushes() const { return next_seq_; }

 private:
  // Max-heap comparator inverted into a min-queue: a sorts after b when its
  // key is strictly greater.
  static bool After(const Entry& a, const Entry& b) {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    if (a.priority != b.priority) {
      return a.priority > b.priority;
    }
    return a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace pollux

#endif  // POLLUX_SIM_ENGINE_EVENT_QUEUE_H_
