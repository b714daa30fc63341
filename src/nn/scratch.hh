/**
 * @file
 * Layer-sized kernel temporaries (im2col columns, packed GEMM
 * panels), lent for one call from a process-wide shelf. Per-thread
 * buffers would grow with the number of threads that ever ran a
 * forward pass — a server leads passes on any connection thread —
 * while shelved ones grow only with the calls that run at once. A
 * lent buffer's contents are unspecified: callers write what they
 * read.
 */

#ifndef DJINN_NN_SCRATCH_HH
#define DJINN_NN_SCRATCH_HH

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace djinn {
namespace nn {

template <typename T>
class Scratch
{
  public:
    /** Borrow at least @p count elements: the smallest shelved
     * buffer that holds them, else the largest one, grown. */
    explicit Scratch(size_t count)
    {
        {
            std::lock_guard<std::mutex> lock(shelf().mutex);
            std::vector<std::vector<T>> &free = shelf().free;
            // Fitting buffers rank first, smallest first; then the
            // misfits, largest first.
            auto rank = [count](const std::vector<T> &b) {
                return b.size() >= count
                           ? std::pair<int, size_t>{0, b.size()}
                           : std::pair<int, size_t>{1, ~b.size()};
            };
            auto best = std::min_element(
                free.begin(), free.end(),
                [&](const auto &a, const auto &b) {
                    return rank(a) < rank(b);
                });
            if (best != free.end()) {
                buffer_ = std::move(*best);
                free.erase(best);
            }
        }
        if (buffer_.size() < count) {
            buffer_.clear();
            buffer_.resize(count);
        }
    }

    ~Scratch()
    {
        std::lock_guard<std::mutex> lock(shelf().mutex);
        shelf().free.push_back(std::move(buffer_));
    }

    Scratch(const Scratch &) = delete;
    Scratch &operator=(const Scratch &) = delete;

    T *data() { return buffer_.data(); }
    T &operator[](size_t i) { return buffer_[i]; }

  private:
    struct Shelf {
        std::mutex mutex;
        std::vector<std::vector<T>> free;
    };

    /** Never destroyed, so a call still running at exit finds it. */
    static Shelf &
    shelf()
    {
        static Shelf *shelf = new Shelf;
        return *shelf;
    }

    std::vector<T> buffer_;
};

} // namespace nn
} // namespace djinn

#endif // DJINN_NN_SCRATCH_HH
