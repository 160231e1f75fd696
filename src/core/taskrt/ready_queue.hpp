// The one policy-driven ready-task queue (RTQ) shared by every engine.
//
// The paper (§3.4) leaves the scheduling policy open and pops "whichever
// task is at the top of the queue"; the solver exposes the knob
// (core::Policy) for the scheduling ablation. This container is the
// single implementation of every policy, templated on the engine's
// task payload:
//
//   kFifo / kLifo      plain deque ends;
//   kPriority /        binary max-heap maintained in place with
//   kCriticalPath /    std::push_heap/pop_heap — higher priority pops
//   kBottomLevel       first, ties broken by lower insertion sequence,
//                      reproducing a stable linear-scan selection in
//                      O(log n) (the scan went quadratic on the deep RTQs
//                      of irregular matrices, e.g. the thermal_proxy
//                      regime).
//
// The *meaning* of the priority stays with the engine (kPriority uses
// -supernode, kCriticalPath elimination-tree depth, kBottomLevel the
// timed bottom level, panel tasks first); the queue only
// orders by the int64 it is handed. Same single-writer rule as the rest
// of the per-rank engine state (DESIGN.md §4d): each instance belongs to
// one rank and is only touched by the thread driving that rank.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "core/options.hpp"

namespace sympack::core::taskrt {

template <typename Task>
class ReadyQueue {
 public:
  ReadyQueue() = default;
  explicit ReadyQueue(Policy policy) : policy_(policy) {}

  /// Set the policy before any push (construction-time configuration;
  /// the engines size their per-rank arrays first, then set the policy).
  void set_policy(Policy policy) { policy_ = policy; }
  [[nodiscard]] Policy policy() const { return policy_; }

  [[nodiscard]] bool empty() const { return q_.empty(); }
  [[nodiscard]] std::size_t size() const { return q_.size(); }

  /// Enqueue a ready task. `prio` is consulted only by the heap policies
  /// (FIFO/LIFO callers may pass anything; 0 by convention).
  void push(Task task, std::int64_t prio = 0) {
    if (heaped()) {
      q_.push_back(Entry{std::move(task), prio, next_seq_++});
      std::push_heap(q_.begin(), q_.end(), heap_less);
      return;
    }
    q_.push_back(Entry{std::move(task), 0, 0});
  }

  /// Dequeue the next task per the policy. Precondition: !empty().
  Task pop() {
    switch (policy_) {
      case Policy::kLifo: {
        Task t = std::move(q_.back().task);
        q_.pop_back();
        return t;
      }
      case Policy::kPriority:
      case Policy::kCriticalPath:
      case Policy::kBottomLevel: {
        std::pop_heap(q_.begin(), q_.end(), heap_less);
        Task t = std::move(q_.back().task);
        q_.pop_back();
        return t;
      }
      case Policy::kFifo:
      case Policy::kAuto:  // resolved before any engine runs; FIFO if not
        break;
    }
    Task t = std::move(q_.front().task);
    q_.pop_front();
    return t;
  }

  /// The `ready` time of the task pop() would return: the horizon the
  /// engines hand Rank::progress(), so RPCs arriving later stay parked
  /// while that task runs. Precondition: !empty().
  [[nodiscard]] double next_ready() const {
    // LIFO pops the back; FIFO the front; the heap policies their top,
    // which std::push_heap keeps at the front.
    return (policy_ == Policy::kLifo ? q_.back() : q_.front()).task.ready;
  }

  /// Drop everything (solve phases reuse one queue across sweeps).
  void clear() {
    q_.clear();
    next_seq_ = 0;
  }

 private:
  struct Entry {
    Task task;
    std::int64_t prio;   // heap policies only
    std::uint64_t seq;   // insertion counter for heap tie-breaks
  };

  [[nodiscard]] bool heaped() const {
    return policy_ == Policy::kPriority || policy_ == Policy::kCriticalPath ||
           policy_ == Policy::kBottomLevel;
  }

  /// "Less" for a max-heap at the front: higher prio wins, ties go to
  /// the earlier insertion.
  static bool heap_less(const Entry& a, const Entry& b) {
    if (a.prio != b.prio) return a.prio < b.prio;
    return a.seq > b.seq;
  }

  Policy policy_ = Policy::kFifo;
  std::deque<Entry> q_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace sympack::core::taskrt
