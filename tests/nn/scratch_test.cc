#include "nn/scratch.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace djinn {
namespace nn {
namespace {

// Each test borrows an element type no kernel uses, so the shelf it
// sees holds only its own buffers.

TEST(Scratch, ShelvedBufferIsLentAgain)
{
    const uint16_t *first = nullptr;
    {
        Scratch<uint16_t> a(100);
        first = a.data();
    }
    Scratch<uint16_t> b(50);
    EXPECT_EQ(b.data(), first);
}

TEST(Scratch, ConcurrentLoansAreDistinct)
{
    Scratch<int16_t> a(10);
    Scratch<int16_t> b(10);
    EXPECT_NE(a.data(), b.data());
}

TEST(Scratch, SmallestFittingBufferWins)
{
    const double *big = nullptr, *small = nullptr;
    {
        Scratch<double> a(1000);
        Scratch<double> b(10);
        big = a.data();
        small = b.data();
    }
    Scratch<double> c(5);
    Scratch<double> d(500);
    EXPECT_EQ(c.data(), small);
    EXPECT_EQ(d.data(), big);
}

TEST(Scratch, LargestBufferGrowsWhenNoneFits)
{
    { Scratch<char32_t> seed(10); }
    const char32_t *grown = nullptr;
    {
        Scratch<char32_t> a(4096);
        for (size_t i = 0; i < 4096; ++i)
            a[i] = static_cast<char32_t>(i);
        EXPECT_EQ(a[4095], 4095u);
        grown = a.data();
    }
    // The grown buffer went back on the shelf in place of the small
    // one, so the next loan of that size reuses it.
    Scratch<char32_t> b(4096);
    EXPECT_EQ(b.data(), grown);
    Scratch<char32_t> c(1);
    EXPECT_NE(c.data(), grown);
}

TEST(Scratch, LoansFromManyThreadsStayDisjoint)
{
    std::vector<std::thread> threads;
    std::vector<int> bad(8, 0);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([t, &bad]() {
            for (int round = 0; round < 200; ++round) {
                Scratch<int64_t> s(64 + t);
                for (int i = 0; i < 64; ++i)
                    s[i] = t;
                std::this_thread::yield();
                for (int i = 0; i < 64; ++i)
                    bad[t] += s[i] != t;
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < 8; ++t)
        EXPECT_EQ(bad[t], 0) << "thread " << t;
}

} // namespace
} // namespace nn
} // namespace djinn
