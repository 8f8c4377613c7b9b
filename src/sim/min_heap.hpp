/**
 * @file
 * Reservable min-heap with std::priority_queue pop semantics.
 *
 * std::priority_queue hides its container, so the backing vector can
 * never be pre-reserved and the first pushes of every run pay
 * reallocation.  MinHeap is the same data structure — a binary heap
 * maintained with std::push_heap/std::pop_heap over std::vector and a
 * std::greater comparator — with reserve() exposed.
 *
 * The operation sequence (push_back + push_heap on push, pop_heap +
 * pop_back on pop) matches the standard adaptor exactly, so replacing a
 * `std::priority_queue<T, std::vector<T>, std::greater<T>>` with
 * `MinHeap<T>` yields the identical element order — including the order
 * of equal-priority elements.  The one node-side heap, ClusterNode's,
 * compares (due, seq), a total order, so its pop order does not depend
 * on heap shape.  The network-side heaps still compare due only, and
 * their equal-due ties pop in push_heap order (DESIGN.md, "Event
 * order").
 *
 * A pop sifts about log2(size) elements, so its cost scales with
 * sizeof(T).  The heap algorithms move elements by comparison outcomes
 * alone, so moving a payload out of the element — into a side table the
 * element indexes — keeps the pop order as long as the comparator reads
 * the same fields.  ClusterNode::LocalEvent stays at 32 bytes for this
 * reason, and PearlNetwork's in-flight heap holds 8-byte {due, slot}
 * keys over a packet slab and a slot-indexed record array.
 *
 * top() is a plain read of the first element, so ClusterNode::tick
 * tests `top().due` every cycle, inline, and skips the cycles with
 * nothing due; only a due event costs a pop.
 */

#ifndef PEARL_SIM_MIN_HEAP_HPP
#define PEARL_SIM_MIN_HEAP_HPP

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace pearl {
namespace sim {

/** Min-heap over std::vector; T needs operator> (as the event structs
 *  used with std::greater already define). */
template <typename T>
class MinHeap
{
  public:
    void reserve(std::size_t n) { heap_.reserve(n); }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    const T &
    top() const
    {
        PEARL_ASSERT(!heap_.empty());
        return heap_.front();
    }

    void
    push(T value)
    {
        heap_.push_back(std::move(value));
        std::push_heap(heap_.begin(), heap_.end(), std::greater<T>());
    }

    void
    pop()
    {
        PEARL_ASSERT(!heap_.empty());
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<T>());
        heap_.pop_back();
    }

    /** Read-only view of the backing store in heap (not sorted) order;
     *  lets auditors scan pending events without draining the heap. */
    const std::vector<T> &items() const { return heap_; }

  private:
    std::vector<T> heap_;
};

} // namespace sim
} // namespace pearl

#endif // PEARL_SIM_MIN_HEAP_HPP
