//===- tests/core/FlatVarTableTest.cpp ------------------------------------==//

#include "core/FlatVarTable.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <random>
#include <vector>

using namespace pacer;

TEST(FlatVarTableTest, EmptyTableOwnsNoHeap) {
  FlatVarTable<int> Table;
  EXPECT_TRUE(Table.empty());
  EXPECT_EQ(Table.size(), 0u);
  EXPECT_EQ(Table.heapBytes(), 0u);
  EXPECT_EQ(Table.find(0), nullptr);
  EXPECT_FALSE(Table.erase(0));
}

TEST(FlatVarTableTest, InsertFindRoundTrip) {
  FlatVarTable<int> Table;
  Table.getOrInsert(7) = 42;
  ASSERT_NE(Table.find(7), nullptr);
  EXPECT_EQ(*Table.find(7), 42);
  EXPECT_EQ(Table.find(8), nullptr);
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_GT(Table.heapBytes(), 0u);
}

TEST(FlatVarTableTest, GetOrInsertIsIdempotent) {
  FlatVarTable<int> Table;
  Table.getOrInsert(3) = 10;
  EXPECT_EQ(Table.getOrInsert(3), 10);
  EXPECT_EQ(Table.size(), 1u);
}

TEST(FlatVarTableTest, EraseMakesRoomAndFindMisses) {
  FlatVarTable<int> Table;
  Table.getOrInsert(1) = 1;
  Table.getOrInsert(2) = 2;
  EXPECT_TRUE(Table.erase(1));
  EXPECT_EQ(Table.find(1), nullptr);
  EXPECT_FALSE(Table.erase(1));
  EXPECT_EQ(Table.size(), 1u);
  ASSERT_NE(Table.find(2), nullptr);
  EXPECT_EQ(*Table.find(2), 2);
}

TEST(FlatVarTableTest, ReinsertAfterEraseReusesTombstone) {
  FlatVarTable<int> Table;
  Table.getOrInsert(5) = 50;
  size_t Bytes = Table.heapBytes();
  for (int Round = 0; Round < 1000; ++Round) {
    EXPECT_TRUE(Table.erase(5));
    Table.getOrInsert(5) = 50 + Round;
  }
  // Discard/re-insert churn of one key must not grow the table.
  EXPECT_EQ(Table.heapBytes(), Bytes);
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_EQ(*Table.find(5), 50 + 999);
}

TEST(FlatVarTableTest, SparseHugeKeys) {
  FlatVarTable<int> Table;
  const VarId Keys[] = {0, 1, 5000000, InvalidId - 2, 123456789};
  int V = 0;
  for (VarId Key : Keys)
    Table.getOrInsert(Key) = V++;
  V = 0;
  for (VarId Key : Keys) {
    ASSERT_NE(Table.find(Key), nullptr) << Key;
    EXPECT_EQ(*Table.find(Key), V++);
  }
  EXPECT_EQ(Table.size(), 5u);
}

TEST(FlatVarTableTest, GrowthKeepsAllEntries) {
  FlatVarTable<uint32_t> Table;
  constexpr uint32_t N = 5000;
  for (uint32_t I = 0; I < N; ++I)
    Table.getOrInsert(I) = I * 3;
  EXPECT_EQ(Table.size(), N);
  for (uint32_t I = 0; I < N; ++I) {
    ASSERT_NE(Table.find(I), nullptr) << I;
    EXPECT_EQ(*Table.find(I), I * 3);
  }
}

TEST(FlatVarTableTest, ForEachVisitsExactlyLiveEntries) {
  FlatVarTable<int> Table;
  for (VarId Key = 0; Key < 20; ++Key)
    Table.getOrInsert(Key) = static_cast<int>(Key);
  for (VarId Key = 0; Key < 20; Key += 2)
    Table.erase(Key);
  std::map<VarId, int> Seen;
  Table.forEach([&](VarId Key, const int &Value) { Seen[Key] = Value; });
  EXPECT_EQ(Seen.size(), 10u);
  for (const auto &[Key, Value] : Seen) {
    EXPECT_EQ(Key % 2, 1u);
    EXPECT_EQ(Value, static_cast<int>(Key));
  }
}

TEST(FlatVarTableTest, EraseIfDropsMatchingEntries) {
  FlatVarTable<int> Table;
  for (VarId Key = 0; Key < 100; ++Key)
    Table.getOrInsert(Key) = static_cast<int>(Key);
  Table.eraseIf([](VarId, int &Value) { return Value % 3 == 0; });
  EXPECT_EQ(Table.size(), 66u); // 100 - 34 multiples of 3.
  for (VarId Key = 0; Key < 100; ++Key)
    EXPECT_EQ(Table.find(Key) != nullptr, Key % 3 != 0) << Key;
}

TEST(FlatVarTableTest, MassEraseReleasesSpace) {
  FlatVarTable<int> Table;
  constexpr VarId N = 2000;
  for (VarId Key = 0; Key < N; ++Key)
    Table.getOrInsert(Key) = 1;
  size_t Full = Table.heapBytes();
  for (VarId Key = 0; Key < N; ++Key)
    Table.erase(Key);
  EXPECT_TRUE(Table.empty());
  EXPECT_LT(Table.heapBytes(), Full / 4); // Discard gives the space back.
  // Still usable after shrinking.
  Table.getOrInsert(5) = 9;
  EXPECT_EQ(*Table.find(5), 9);
}

TEST(FlatVarTableTest, EraseIfShrinksAfterMassDiscard) {
  FlatVarTable<int> Table;
  for (VarId Key = 0; Key < 1000; ++Key)
    Table.getOrInsert(Key) = static_cast<int>(Key);
  size_t Full = Table.heapBytes();
  Table.eraseIf([](VarId Key, int &) { return Key >= 10; });
  EXPECT_EQ(Table.size(), 10u);
  EXPECT_LT(Table.heapBytes(), Full / 4);
  for (VarId Key = 0; Key < 10; ++Key)
    EXPECT_EQ(*Table.find(Key), static_cast<int>(Key));
}

TEST(FlatVarTableTest, ClearKeepsCapacity) {
  FlatVarTable<int> Table;
  for (VarId Key = 0; Key < 50; ++Key)
    Table.getOrInsert(Key) = 1;
  size_t Bytes = Table.heapBytes();
  Table.clear();
  EXPECT_TRUE(Table.empty());
  EXPECT_EQ(Table.heapBytes(), Bytes);
  EXPECT_EQ(Table.find(10), nullptr);
  Table.getOrInsert(10) = 7;
  EXPECT_EQ(*Table.find(10), 7);
}

namespace {

constexpr uint64_t BitmapCap = uint64_t(1) << 26;

/// Widening key universes for the churn harness, one per stage: dense
/// keys; then a second dense block far above them, which the presence
/// bitmap doubles to cover; then keys on both sides of the bitmap's
/// 2^26-key cap and, for 64-bit keys, keys past 32 bits.
template <typename KeyT> std::vector<std::vector<KeyT>> churnStages() {
  std::vector<std::vector<KeyT>> Stages(3);
  for (uint64_t K = 0; K < 256; ++K)
    Stages[0].push_back(static_cast<KeyT>(K));
  Stages[1] = Stages[0];
  for (uint64_t K = 4096; K < 4352; ++K)
    Stages[1].push_back(static_cast<KeyT>(K));
  Stages[2] = Stages[1];
  for (uint64_t K = BitmapCap - 32; K < BitmapCap + 32; ++K)
    Stages[2].push_back(static_cast<KeyT>(K));
  if constexpr (sizeof(KeyT) == sizeof(uint64_t))
    for (uint64_t K = 0; K < 32; ++K)
      Stages[2].push_back((uint64_t(7) << 40) + K);
  return Stages;
}

/// Random insert/erase/find churn against std::map, widening the key
/// universe stage by stage, with periodic mass discards (eraseIf, which
/// shrinks the slot array) and clear()s. After every mutation contains()
/// must agree with find() on every key of every stage -- live, erased, and
/// not yet inserted -- and on keys never inserted at all, including keys
/// above the largest inserted key on both sides of the bitmap cap.
template <typename KeyT> void churnAgainstReference(uint32_t Seed) {
  FlatVarTable<uint64_t, KeyT> Table;
  std::map<KeyT, uint64_t> Reference;
  const std::vector<std::vector<KeyT>> Stages = churnStages<KeyT>();
  std::vector<KeyT> Probes = Stages.back();
  for (uint64_t K : {uint64_t(300), uint64_t(5000), BitmapCap + 4096})
    Probes.push_back(static_cast<KeyT>(K));
  Probes.push_back(std::numeric_limits<KeyT>::max() - 2);

  std::mt19937 Rng(Seed);
  constexpr int Ops = 21000;
  size_t Grows = 0, Shrinks = 0;
  for (int Op = 0; Op < Ops; ++Op) {
    const std::vector<KeyT> &Keys = Stages[Op * Stages.size() / Ops];
    const KeyT Key = Keys[Rng() % Keys.size()];
    const size_t Bytes = Table.heapBytes();
    switch (Rng() % 3) {
    case 0: {
      uint64_t Value = Rng();
      Table.getOrInsert(Key) = Value;
      Reference[Key] = Value;
      break;
    }
    case 1:
      EXPECT_EQ(Table.erase(Key), Reference.erase(Key) == 1);
      break;
    default: {
      auto It = Reference.find(Key);
      uint64_t *Found = Table.find(Key);
      ASSERT_EQ(Found != nullptr, It != Reference.end());
      if (Found) {
        EXPECT_EQ(*Found, It->second);
      }
      break;
    }
    }
    if (Op % 1000 == 999) {
      // Mass discard keeping about one entry in eight.
      Table.eraseIf([](KeyT, uint64_t &Value) { return (Value & 7) != 0; });
      std::erase_if(Reference,
                    [](const auto &Entry) { return (Entry.second & 7) != 0; });
    }
    if (Op % 5000 == 4999) {
      Table.clear();
      Reference.clear();
    }
    Grows += Table.heapBytes() > Bytes;
    Shrinks += Table.heapBytes() < Bytes;
    ASSERT_EQ(Table.size(), Reference.size()) << "op " << Op;
    for (KeyT Probe : Probes) {
      if (Table.contains(Probe) != (Table.find(Probe) != nullptr)) {
        FAIL() << "contains() disagrees with find() at op " << Op
               << " key " << Probe;
      }
    }
  }
  EXPECT_GT(Grows, 0u);
  EXPECT_GT(Shrinks, 0u);

  size_t Visited = 0;
  Table.forEach([&](KeyT Key, const uint64_t &Value) {
    ++Visited;
    auto It = Reference.find(Key);
    ASSERT_NE(It, Reference.end());
    EXPECT_EQ(Value, It->second);
  });
  EXPECT_EQ(Visited, Reference.size());
}

} // namespace

TEST(FlatVarTableTest, MatchesReferenceMapUnderChurn) {
  churnAgainstReference<VarId>(12345);
  churnAgainstReference<uint64_t>(54321);
}

namespace {

/// Drives a FlatVarTable through a random insert/erase schedule and
/// cross-checks findBlock and contains() against per-key find() after
/// every mutation burst. Small key universes produce dense tables rich in
/// collision chains; heavy erasure produces tombstone chains the gather's
/// first-slot screen cannot resolve (forcing the scalar fallback).
void differentialFindBlockCheck(uint32_t KeyUniverse, double EraseProb,
                                uint64_t Seed) {
  FlatVarTable<uint64_t> Table;
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<uint32_t> KeyDist(0, KeyUniverse - 1);
  std::uniform_real_distribution<double> Coin(0.0, 1.0);

  for (int Round = 0; Round < 200; ++Round) {
    for (int Op = 0; Op < 32; ++Op) {
      const uint32_t Key = KeyDist(Rng);
      if (Coin(Rng) < EraseProb)
        Table.erase(Key);
      else
        Table.getOrInsert(Key) = (static_cast<uint64_t>(Key) << 16) | Round;
    }

    uint32_t Keys[64];
    uint64_t *Got[64];
    std::uniform_int_distribution<size_t> WidthDist(1, 64);
    const size_t N = WidthDist(Rng);
    for (size_t I = 0; I != N; ++I)
      Keys[I] = KeyDist(Rng); // Duplicates and absent keys included.

    const size_t Resolved = Table.findBlock(Keys, N, Got);
    EXPECT_LE(Resolved, N);
    for (size_t I = 0; I != N; ++I) {
      uint64_t *Want = Table.find(Keys[I]);
      EXPECT_EQ(Got[I], Want)
          << "universe " << KeyUniverse << " round " << Round << " key "
          << Keys[I];
      EXPECT_EQ(Table.contains(Keys[I]), Want != nullptr) << Keys[I];
      if (Want) {
        EXPECT_EQ(*Got[I], *Want);
      }
    }
  }
}

} // namespace

TEST(FlatVarTableTest, FindBlockMatchesScalarFindSparse) {
  // Large universe: mostly misses, resolved by the empty-lane screen.
  differentialFindBlockCheck(/*KeyUniverse=*/1 << 20, /*EraseProb=*/0.2, 61);
}

TEST(FlatVarTableTest, FindBlockMatchesScalarFindCollisionHeavy) {
  // Tiny universe under churn: dense table, long collision and tombstone
  // chains, repeated shrink/grow rehashes.
  differentialFindBlockCheck(/*KeyUniverse=*/96, /*EraseProb=*/0.45, 67);
  differentialFindBlockCheck(/*KeyUniverse=*/40, /*EraseProb=*/0.6, 71);
}
