/**
 * @file
 * D-ary heap for the simulator event queue.
 *
 * A binary heap does one comparison per level over log2(n) levels; a
 * 4-ary heap halves the depth at the cost of three sibling
 * comparisons per level, which is a net win for pop-heavy workloads
 * on shallow trees because all four children share a cache line or
 * two. The element type is kept small (the engine's Event is packed
 * to 16 bytes) so sift moves are cheap.
 *
 * The comparator follows std::priority_queue conventions: with
 * Compare = std::greater<T>, the smallest element is on top (a
 * min-heap), which is what a discrete-event queue wants.
 */

#ifndef OVLSIM_UTIL_DARY_HEAP_HH
#define OVLSIM_UTIL_DARY_HEAP_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace ovlsim {

template <typename T, std::size_t D = 4,
          typename Compare = std::greater<T>>
class DaryHeap
{
    static_assert(D >= 2, "heap arity must be at least 2");

  public:
    DaryHeap() = default;

    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

    void reserve(std::size_t n) { items_.reserve(n); }

    const T &top() const { return items_.front(); }

    void
    push(T value)
    {
        items_.push_back(std::move(value));
        siftUp(items_.size() - 1);
    }

    void
    pop()
    {
        T last = std::move(items_.back());
        items_.pop_back();
        if (!items_.empty()) {
            items_.front() = std::move(last);
            siftDown(0);
        }
    }

    void
    clear()
    {
        items_.clear();
    }

    /**
     * Raw element access in storage (not priority) order, for
     * whole-heap transforms: the checkpoint seam shifts every
     * pending event's time by one constant. A mutating visitor must
     * preserve the relative ordering of every element pair (e.g.
     * add the same offset to each key), otherwise the heap
     * invariant silently breaks.
     */
    T &operator[](std::size_t i) { return items_[i]; }
    const T &operator[](std::size_t i) const { return items_[i]; }

  private:
    static std::size_t parent(std::size_t i) { return (i - 1) / D; }
    static std::size_t firstChild(std::size_t i) { return i * D + 1; }

    void
    siftUp(std::size_t i)
    {
        T value = std::move(items_[i]);
        while (i > 0) {
            const std::size_t p = parent(i);
            if (!cmp_(items_[p], value))
                break;
            items_[i] = std::move(items_[p]);
            i = p;
        }
        items_[i] = std::move(value);
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = items_.size();
        T value = std::move(items_[i]);
        while (true) {
            const std::size_t first = firstChild(i);
            if (first >= n)
                break;
            const std::size_t last =
                first + D < n ? first + D : n;
            std::size_t best = first;
            for (std::size_t c = first + 1; c < last; ++c) {
                if (cmp_(items_[best], items_[c]))
                    best = c;
            }
            if (!cmp_(value, items_[best]))
                break;
            items_[i] = std::move(items_[best]);
            i = best;
        }
        items_[i] = std::move(value);
    }

    std::vector<T> items_;
    [[no_unique_address]] Compare cmp_;
};

} // namespace ovlsim

#endif // OVLSIM_UTIL_DARY_HEAP_HH
