//===- tests/support/ArenaTest.cpp ----------------------------------------==//
//
// The detector-metadata arena: slab reuse, size-class recycling, the
// thread binding, the headered free-from-anywhere contract the
// detectors' destruction order relies on, and the process-wide pool that
// hands a dead arena's slabs to the next arena.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

using namespace pacer;

namespace {

TEST(ArenaTest, AllocateCarvesFromSlabs) {
  Arena A;
  void *P1 = A.allocate(32);
  void *P2 = A.allocate(32);
  ASSERT_NE(P1, nullptr);
  ASSERT_NE(P2, nullptr);
  EXPECT_NE(P1, P2);
  // Blocks are writable and 16-aligned (the header keeps payloads
  // aligned for the SIMD kernels' unaligned-load tolerance tests).
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P1) % 16, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P2) % 16, 0u);
  std::memset(P1, 0xab, 32);
  std::memset(P2, 0xcd, 32);
  EXPECT_EQ(A.slabAllocations(), 1u); // Both fit the first slab.
  Arena::freeBlock(P2);
  Arena::freeBlock(P1);
}

TEST(ArenaTest, FreeListRecyclesSameClass) {
  Arena A;
  void *P = A.allocate(64);
  Arena::freeBlock(P);
  // Same size class: the freed block must come back, not fresh slab space.
  void *Q = A.allocate(64);
  EXPECT_EQ(P, Q);
  Arena::freeBlock(Q);
  uint64_t Slabs = A.slabAllocations();
  // A long alloc/free cycle must not grow the slab footprint.
  for (int I = 0; I < 10000; ++I)
    Arena::freeBlock(A.allocate(64));
  EXPECT_EQ(A.slabAllocations(), Slabs);
}

TEST(ArenaTest, OversizeBlocksGetDedicatedSlabs) {
  Arena A;
  size_t Big = size_t(1) << 20; // Larger than the default slab.
  void *P = A.allocate(Big);
  ASSERT_NE(P, nullptr);
  std::memset(P, 0x5a, Big);
  EXPECT_GE(A.slabBytes(), Big);
  Arena::freeBlock(P);
  // Recycled through the free list, like any other class.
  EXPECT_EQ(A.allocate(Big), P);
}

TEST(ArenaTest, ScopeBindsAndNests) {
  EXPECT_EQ(Arena::current(), nullptr);
  Arena Outer, Inner;
  {
    Arena::Scope S1(&Outer);
    EXPECT_EQ(Arena::current(), &Outer);
    {
      Arena::Scope S2(&Inner);
      EXPECT_EQ(Arena::current(), &Inner);
      void *P = Arena::allocBlock(24);
      EXPECT_GT(Inner.blockAllocations(), 0u);
      EXPECT_EQ(Outer.blockAllocations(), 0u);
      Arena::freeBlock(P);
    }
    EXPECT_EQ(Arena::current(), &Outer);
    {
      Arena::Scope S3(nullptr); // Explicitly unbound.
      EXPECT_EQ(Arena::current(), nullptr);
    }
    EXPECT_EQ(Arena::current(), &Outer);
  }
  EXPECT_EQ(Arena::current(), nullptr);
}

TEST(ArenaTest, UnboundAllocBlockFallsBackToHeap) {
  ASSERT_EQ(Arena::current(), nullptr);
  void *P = Arena::allocBlock(40);
  ASSERT_NE(P, nullptr);
  std::memset(P, 0x11, 40);
  Arena::freeBlock(P); // Header dispatch: plain heap free, no arena.
}

TEST(ArenaTest, BlocksFreeFromAnyContext) {
  // A block allocated under one binding must free correctly while a
  // *different* arena (or none) is bound -- this is what detector member
  // destructors do.
  Arena A, B;
  void *P;
  {
    Arena::Scope SA(&A);
    P = Arena::allocBlock(64);
  }
  {
    Arena::Scope SB(&B);
    Arena::freeBlock(P); // Routed to A via the header, not to B.
  }
  {
    Arena::Scope SA(&A);
    EXPECT_EQ(Arena::allocBlock(64), P); // A's free list has it.
  }
}

TEST(ArenaTest, ResetKeepsSlabsAndRecyclesEverything) {
  Arena A;
  std::vector<void *> Blocks;
  for (int I = 0; I < 100; ++I)
    Blocks.push_back(A.allocate(128));
  size_t Footprint = A.slabBytes();
  uint64_t Slabs = A.slabAllocations();
  A.reset(); // All 100 blocks are dead: reset is legal.
  EXPECT_EQ(A.slabBytes(), Footprint);
  // The same demand is now served entirely from recycled slab space.
  for (int I = 0; I < 100; ++I)
    ASSERT_NE(A.allocate(128), nullptr);
  EXPECT_EQ(A.slabAllocations(), Slabs);
}

TEST(ArenaTest, ArenaAllocatorVectorUsesBoundArena) {
  Arena A;
  {
    Arena::Scope S(&A);
    std::vector<int, ArenaAllocator<int>> V;
    for (int I = 0; I < 1000; ++I)
      V.push_back(I);
    EXPECT_GT(A.blockAllocations(), 0u);
    for (int I = 0; I < 1000; ++I)
      ASSERT_EQ(V[I], I);
  } // V destroyed inside the scope; blocks return to A.
}

TEST(ArenaTest, ArenaAllocatorVectorOutlivesScope) {
  // The detector pattern: the container is destroyed after the entry
  // point's scope ended (during ~Detector), with the arena still alive.
  Arena A;
  {
    std::vector<int, ArenaAllocator<int>> V;
    {
      Arena::Scope S(&A);
      V.assign(512, 7);
    }
    EXPECT_EQ(V.size(), 512u);
    EXPECT_EQ(V[511], 7);
  } // Destruction happens unbound; header routes the block back to A.
  void *P = A.allocate(512 * sizeof(int));
  EXPECT_NE(P, nullptr); // Arena still coherent.
  Arena::freeBlock(P);
}

TEST(ArenaTest, DeadArenaSlabGoesToNextArena) {
  void *First;
  {
    Arena A;
    First = A.allocate(32);
  }
  // The slab went to the pool, not back to the heap, so a heap block of
  // its size cannot take it. The pool hands out the most recently pooled
  // slab first: the next arena's first block lands where the dead
  // arena's first block was.
  void *Heap = ::operator new(size_t(64) << 10);
  Arena B;
  EXPECT_EQ(B.allocate(32), First);
  ::operator delete(Heap);
}

TEST(ArenaTest, OversizeSlabIsNotPooled) {
  const size_t Big = size_t(1) << 20;
  void *Small;
  void *Huge;
  {
    Arena A;
    Small = A.allocate(32); // A default slab...
    Huge = A.allocate(Big); // ...and a dedicated oversize one.
  }
  // Had the oversize slab been pooled, one of the next arena's first two
  // slabs would be it, and that slab's first block would sit at Huge.
  Arena B;
  EXPECT_EQ(B.allocate(32), Small);
  void *Next;
  do
    Next = B.allocate(32);
  while (B.slabAllocations() == 1);
  EXPECT_NE(Next, Huge);
}

TEST(ArenaTest, SlabCountsStayPerArena) {
  // A 32 KiB block fills a slab on its own (its header tips a second one
  // over 64 KiB), so each allocation below takes exactly one slab.
  const size_t Half = size_t(32) << 10;
  std::vector<void *> Dead;
  {
    Arena Warm;
    for (int I = 0; I < 3; ++I)
      Dead.push_back(Warm.allocate(Half));
    EXPECT_EQ(Warm.slabAllocations(), 3u);
  }
  // A new arena counts the pooled slabs it takes just as it would count
  // newly mapped ones, and owns nothing before it takes any. The heap
  // blocks keep a heap-backed arena from passing by reusing freed slabs.
  std::vector<void *> Heap;
  for (int I = 0; I < 3; ++I)
    Heap.push_back(::operator new(size_t(64) << 10));
  Arena A;
  EXPECT_EQ(A.slabAllocations(), 0u);
  EXPECT_EQ(A.slabBytes(), 0u);
  void *P = A.allocate(Half);
  void *Q = A.allocate(Half);
  EXPECT_NE(std::find(Dead.begin(), Dead.end(), P), Dead.end());
  EXPECT_NE(std::find(Dead.begin(), Dead.end(), Q), Dead.end());
  EXPECT_EQ(A.slabAllocations(), 2u);
  EXPECT_EQ(A.slabBytes(), 2 * (size_t(64) << 10));
  for (void *H : Heap)
    ::operator delete(H);
}

TEST(ArenaTest, ConcurrentArenasNeverShareASlab) {
  // Arenas are born and die on ThreadPool workers. Each thread fills its
  // arena's blocks with its own byte and checks them before the arena
  // dies: a slab handed to two live arenas would mix the bytes.
  constexpr int Threads = 4;
  constexpr int Rounds = 100;
  constexpr int Blocks = 48;
  constexpr size_t MaxBlock = size_t(64) << 7; // 8 KiB.
  std::vector<int> Mismatches(Threads, 0);
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([T, &Mismatches] {
      const unsigned char Pattern = static_cast<unsigned char>(0xa0 + T);
      const std::vector<unsigned char> Expected(MaxBlock, Pattern);
      for (int R = 0; R < Rounds; ++R) {
        Arena A;
        std::vector<std::pair<void *, size_t>> Live;
        for (int B = 0; B < Blocks; ++B) {
          const size_t Bytes = size_t(64) << (B % 8); // 64 B .. 8 KiB.
          void *P = A.allocate(Bytes);
          std::memset(P, Pattern, Bytes);
          Live.push_back({P, Bytes});
        }
        std::this_thread::yield();
        for (const auto &[P, Bytes] : Live)
          if (std::memcmp(P, Expected.data(), Bytes) != 0)
            ++Mismatches[T];
      }
    });
  for (std::thread &W : Workers)
    W.join();
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(Mismatches[T], 0) << "thread " << T;
}

} // namespace
