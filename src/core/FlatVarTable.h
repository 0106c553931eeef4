//===- core/FlatVarTable.h - Open-addressing variable table ----*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-addressing hash table mapping dense VarIds to per-variable
/// detector metadata. This is the PACER detector's hot-path structure:
/// sampling-period accesses look their variable up on every event, so
/// lookup cost is per-event cost. Compared to
/// std::unordered_map (chained nodes, one heap allocation and one pointer
/// chase per entry), a flat table probes a contiguous power-of-two slot
/// array with linear probing and a Fibonacci-multiplicative hash: misses
/// usually resolve in a single cache line, and erasure (PACER discards
/// metadata continuously during non-sampling periods) writes a tombstone
/// instead of touching the allocator.
///
/// Capacity is allocated lazily: an empty table owns no heap memory,
/// matching PACER's space story where an idle detector charges nothing.
/// The slot array is a raw block from the current thread's bound Arena
/// (slots are placement-constructed and destroyed explicitly), so the
/// grow/shrink oscillation PACER's sampling churn induces recycles blocks
/// through the arena's size-class free lists instead of malloc.
///
/// A dense presence bitmap, one bit per key below BitmapKeyCap, mirrors
/// the table's membership exactly, so contains() answers a covered key
/// with one bit test and no probe. It stands in for the word in the
/// object header that the paper's non-sampling read/write barrier tests
/// (Section 4): PACER's cold kernel asks it for every access outside a
/// sampling period, and nearly all of those ask about variables without
/// metadata. The bitmap is allocated lazily from the same arena and
/// doubles to cover the largest key inserted; keys at or above the cap
/// (sparse VarIds, 64-bit keys) set a sticky overflow flag, after which
/// contains() answers keys above the covered range with the probe.
///
/// The key type defaults to VarId but may be any unsigned integer (the
/// LiteRace sampler table keys by a 64-bit method/thread pair). Keys must
/// not be the top two values of the key type (the empty and tombstone
/// sentinels); the trace readers reject both as read/write targets
/// (validateActionRecord), so no VarId can collide with them.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_CORE_FLATVARTABLE_H
#define PACER_CORE_FLATVARTABLE_H

#include "core/ClockKernels.h"
#include "core/Ids.h"
#include "support/Arena.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace pacer {

/// Open-addressing KeyT -> ValueT map with tombstone deletion.
/// ValueT must be default-constructible and movable; KeyT must be an
/// unsigned integer type.
template <typename ValueT, typename KeyT = VarId> class FlatVarTable {
  static_assert(std::is_unsigned_v<KeyT>, "keys must be unsigned integers");
  static constexpr KeyT EmptyKey = static_cast<KeyT>(-1);
  static constexpr KeyT TombstoneKey = EmptyKey - 1;
  static constexpr size_t MinCapacity = 16;
  /// Presence-bitmap bounds in 64-bit words: one cache line at first
  /// insert, at most 2^26 keys (8 MiB of bits).
  static constexpr size_t MinBitmapWords = 8;
  static constexpr uint64_t BitmapKeyCap = uint64_t(1) << 26;

  struct Slot {
    KeyT Key = EmptyKey;
    ValueT Value{};
  };

public:
  FlatVarTable() = default;
  FlatVarTable(const FlatVarTable &) = delete;
  FlatVarTable &operator=(const FlatVarTable &) = delete;
  ~FlatVarTable() {
    destroySlots(Slots, Capacity);
    Arena::freeBlock(Bitmap);
  }

  /// Number of live entries.
  size_t size() const { return Live; }
  bool empty() const { return Live == 0; }

  /// Returns the value stored under \p Key, or null. The pointer is
  /// invalidated by the next insertion.
  ValueT *find(KeyT Key) {
    Slot *S = findSlot(Key);
    return S ? &S->Value : nullptr;
  }

  /// True if \p Key holds a value: one bit test for a key the presence
  /// bitmap covers. Below BitmapKeyCap the bitmap covers every key ever
  /// inserted, so an uncovered key is absent unless some key at or above
  /// the cap was inserted; only then does an uncovered key probe.
  bool contains(KeyT Key) const {
    const uint64_t K = Key;
    if (K < BitmapKeys)
      return (Bitmap[K >> 6] >> (K & 63)) & 1;
    return Overflow && findSlot(Key);
  }

  /// Hints the cache to pull in the first probe line for \p Key. A
  /// find(Key) issued a few probes later then usually resolves without a
  /// memory stall; the PACER hot batch kernel issues these while staging
  /// the next block of accesses. Probe chains longer than one line still
  /// pay for their tail -- the hint covers the common single-line case.
  void prefetch(KeyT Key) const {
    if (!Slots)
      return;
    const char *P = reinterpret_cast<const char *>(&Slots[slotFor(Key)]);
    __builtin_prefetch(P);
    // Pull the slot's tail line too when the entry straddles a cache-line
    // boundary; otherwise the analysis that follows the probe still
    // stalls on the second half of the value.
    if ((reinterpret_cast<uintptr_t>(P) & 63) + sizeof(Slot) > 64)
      __builtin_prefetch(P + sizeof(Slot) - 1);
  }
  const ValueT *find(KeyT Key) const {
    return const_cast<FlatVarTable *>(this)->find(Key);
  }

  /// Multi-key lookup: fills Out[I] with the value stored under Keys[I]
  /// or null, for N <= 64 keys in one call. With 32-bit keys the first
  /// probe slot of every key is examined through the dispatched
  /// kernels::probeTags gather (one vpgatherdd per 8-16 keys on AVX2 /
  /// AVX-512) -- a first-slot key match or empty sentinel resolves that
  /// key without touching memory again, and only keys landing on a
  /// collision or tombstone chain walk the scalar probe. Returns how many
  /// keys the vector probe resolved (the probe-hit tally; N minus it is
  /// the scalar-fallback tally). Duplicate keys are fine (lookups do not
  /// mutate); the returned pointers obey the same rule as find(): the
  /// next insertion or erase may invalidate them, observable via
  /// rehashEpoch().
  size_t findBlock(const KeyT *Keys, size_t N, ValueT **Out) {
    assert(N <= 64 && "probe block wider than the kernel masks");
    if (Live == 0) {
      for (size_t I = 0; I != N; ++I)
        Out[I] = nullptr;
      return N;
    }
    if constexpr (sizeof(KeyT) == sizeof(uint32_t)) {
      // The gather lanes are signed-32 byte offsets, so very large tables
      // (and non-32-bit keys below) take the plain scalar path.
      if (heapBytes() <= static_cast<size_t>(INT32_MAX)) {
        uint32_t ByteOff[64];
        uint32_t Tags[64];
        for (size_t I = 0; I != N; ++I) {
          ByteOff[I] = static_cast<uint32_t>(slotFor(Keys[I]) * sizeof(Slot));
          Tags[I] = static_cast<uint32_t>(Keys[I]);
        }
        uint64_t HitMask = 0, EmptyMask = 0;
        kernels::probeTags(Slots, ByteOff, Tags, N,
                           static_cast<uint32_t>(EmptyKey), &HitMask,
                           &EmptyMask);
        size_t Resolved = 0;
        for (size_t I = 0; I != N; ++I) {
          const uint64_t Bit = static_cast<uint64_t>(1) << I;
          if (HitMask & Bit) {
            auto *S = reinterpret_cast<Slot *>(
                reinterpret_cast<char *>(Slots) + ByteOff[I]);
            Out[I] = &S->Value;
            ++Resolved;
          } else if (EmptyMask & Bit) {
            Out[I] = nullptr;
            ++Resolved;
          } else {
            Slot *S = findSlot(Keys[I]);
            Out[I] = S ? &S->Value : nullptr;
          }
        }
        return Resolved;
      }
    }
    for (size_t I = 0; I != N; ++I)
      Out[I] = find(Keys[I]);
    return 0;
  }

  /// Monotone counter bumped every time the slot array is reallocated
  /// (grow or shrink). Pointers handed out by find()/findBlock() stay
  /// valid exactly while this is unchanged, so batched callers can
  /// capture it once and revalidate per entry instead of re-probing.
  size_t rehashEpoch() const { return RehashCount; }

  /// Returns the value under \p Key, default-constructing it if absent.
  /// May rehash; any previously returned pointer is invalidated.
  ValueT &getOrInsert(KeyT Key) {
    assert(Key < TombstoneKey && "key collides with a sentinel");
    if ((Used + 1) * 4 >= Capacity * 3)
      rehash();
    size_t Mask = Capacity - 1;
    size_t I = slotFor(Key);
    size_t FirstTombstone = Capacity; // Sentinel: none seen.
    while (true) {
      Slot &S = Slots[I];
      if (S.Key == Key)
        return S.Value;
      if (S.Key == EmptyKey) {
        // Reuse the first tombstone on the probe path, keeping chains
        // short under PACER's continuous discard/re-insert churn.
        Slot &Target =
            FirstTombstone != Capacity ? Slots[FirstTombstone] : S;
        if (Target.Key != EmptyKey)
          --Tombstones;
        else
          ++Used;
        Target.Key = Key;
        Target.Value = ValueT{};
        ++Live;
        markPresent(Key);
        return Target.Value;
      }
      if (S.Key == TombstoneKey && FirstTombstone == Capacity)
        FirstTombstone = I;
      I = (I + 1) & Mask;
    }
  }

  /// Removes \p Key if present. Returns true if an entry was removed.
  /// May shrink the slot array (invalidating pointers) once occupancy
  /// falls far enough; PACER discards metadata wholesale during
  /// non-sampling periods and the space must actually come back.
  bool erase(KeyT Key) {
    Slot *S = findSlot(Key);
    if (!S)
      return false;
    markAbsent(Key);
    S->Key = TombstoneKey;
    S->Value = ValueT{};
    --Live;
    ++Tombstones;
    maybeShrink();
    return true;
  }

  /// Drops every entry, keeping the slot array and the bitmap.
  void clear() {
    for (size_t I = 0; I < Capacity; ++I) {
      Slots[I].Key = EmptyKey;
      Slots[I].Value = ValueT{};
    }
    if (Bitmap)
      std::memset(Bitmap, 0, BitmapKeys / 8);
    Overflow = false;
    Live = 0;
    Used = 0;
    Tombstones = 0;
  }

  /// Invokes Fn(KeyT, const ValueT &) for every live entry, in slot
  /// (not key) order.
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t I = 0; I < Capacity; ++I)
      if (isLiveSlot(Slots[I]))
        Fn(Slots[I].Key, Slots[I].Value);
  }

  /// Invokes Fn(KeyT, ValueT &) for every live entry; entries for which
  /// Fn returns true are erased. Safe against mutation of the visited
  /// value; must not insert during iteration.
  template <typename FnT> void eraseIf(FnT Fn) {
    for (size_t I = 0; I < Capacity; ++I) {
      Slot &S = Slots[I];
      if (isLiveSlot(S) && Fn(S.Key, S.Value)) {
        markAbsent(S.Key);
        S.Key = TombstoneKey;
        S.Value = ValueT{};
        --Live;
        ++Tombstones;
      }
    }
    maybeShrink();
  }

  /// Heap bytes owned by the slot array (the space model adds per-entry
  /// payload bytes separately; the presence bitmap is not counted).
  size_t heapBytes() const { return Capacity * sizeof(Slot); }

  /// Bytes attributable to the live entries alone, independent of table
  /// capacity. Unlike heapBytes() this is additive across any partition
  /// of the keys, which the sharded-replay space merge relies on.
  size_t entryBytes() const { return Live * sizeof(Slot); }

private:
  /// First probe slot for \p Key at the current capacity. Fibonacci
  /// multiplicative hashing is only well-behaved when the slot index is
  /// taken from the TOP bits of the product: shifting by
  /// 64 - log2(Capacity) makes dense sequential ids walk the table as a
  /// golden-ratio Weyl sequence, whose points are spread as evenly as the
  /// occupancy allows (nearly every key sits in its home slot, which the
  /// findBlock first-slot gather screen depends on). Masking low bits of
  /// the product instead yields a Weyl step with poor continued-fraction
  /// structure at larger capacities -- home slots caravan into multi-slot
  /// clusters and most probes chain. (For 64-bit keys the multiply wraps;
  /// the top bits are still well mixed.)
  size_t slotFor(KeyT Key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(Key) * 0x9e3779b97f4a7c15ULL) >> Shift);
  }

  bool isLiveSlot(const Slot &S) const {
    return S.Key != EmptyKey && S.Key != TombstoneKey;
  }

  /// Allocates and default-constructs a slot array from the bound arena.
  static Slot *allocSlots(size_t N) {
    auto *Out = static_cast<Slot *>(Arena::allocBlock(N * sizeof(Slot)));
    for (size_t I = 0; I < N; ++I)
      new (&Out[I]) Slot();
    return Out;
  }

  /// Destroys the slots and returns the block to its arena.
  static void destroySlots(Slot *S, size_t N) {
    for (size_t I = 0; I < N; ++I)
      S[I].~Slot();
    Arena::freeBlock(S);
  }

  /// Shrinks the slot array when occupancy drops to <= 1/8, releasing the
  /// space a mass discard freed. Never shrinks below MinCapacity: the
  /// non-sampling discard path oscillates between empty and a few entries,
  /// and a floor keeps that oscillation allocation-free.
  void maybeShrink() {
    if (Capacity > MinCapacity && Live * 8 <= Capacity)
      rehash();
  }

  /// Sets \p Key's presence bit, growing the bitmap to cover it, or
  /// records an overflow key the bitmap will never cover.
  void markPresent(KeyT Key) {
    const uint64_t K = Key;
    if (K >= BitmapKeys) {
      if (K >= BitmapKeyCap) {
        Overflow = true;
        return;
      }
      growBitmap(K);
    }
    Bitmap[K >> 6] |= uint64_t(1) << (K & 63);
  }

  void markAbsent(KeyT Key) {
    const uint64_t K = Key;
    if (K < BitmapKeys)
      Bitmap[K >> 6] &= ~(uint64_t(1) << (K & 63));
  }

  /// Doubles the bitmap (from MinBitmapWords) until it covers \p K <
  /// BitmapKeyCap. Every size is a power of two, so the cap is never
  /// exceeded.
  void growBitmap(uint64_t K) {
    const size_t OldWords = BitmapKeys / 64;
    size_t Words = OldWords ? OldWords * 2 : MinBitmapWords;
    while (Words * 64 <= K)
      Words *= 2;
    auto *New =
        static_cast<uint64_t *>(Arena::allocBlock(Words * sizeof(uint64_t)));
    if (OldWords)
      std::memcpy(New, Bitmap, OldWords * sizeof(uint64_t));
    std::memset(New + OldWords, 0, (Words - OldWords) * sizeof(uint64_t));
    Arena::freeBlock(Bitmap);
    Bitmap = New;
    BitmapKeys = Words * 64;
  }

  Slot *findSlot(KeyT Key) const {
    if (Live == 0)
      return nullptr;
    size_t Mask = Capacity - 1;
    size_t I = slotFor(Key);
    while (true) {
      Slot &S = Slots[I];
      if (S.Key == Key)
        return &S;
      if (S.Key == EmptyKey)
        return nullptr;
      I = (I + 1) & Mask;
    }
  }

  /// Reallocates to a capacity sized for the live count (shedding
  /// tombstones) and reinserts every live entry.
  void rehash() {
    ++RehashCount;
    size_t NewCapacity = MinCapacity;
    while (NewCapacity * 3 < (Live + 1) * 8) // Target load <= 3/8.
      NewCapacity *= 2;
    Slot *OldSlots = Slots;
    size_t OldCapacity = Capacity;
    Slots = allocSlots(NewCapacity);
    Capacity = NewCapacity;
    Shift = 64 - static_cast<unsigned>(__builtin_ctzll(NewCapacity));
    Used = Live;
    Tombstones = 0;
    size_t Mask = NewCapacity - 1;
    for (size_t I = 0; I < OldCapacity; ++I) {
      Slot &S = OldSlots[I];
      if (!isLiveSlot(S))
        continue;
      size_t J = slotFor(S.Key);
      while (Slots[J].Key != EmptyKey)
        J = (J + 1) & Mask;
      Slots[J].Key = S.Key;
      Slots[J].Value = std::move(S.Value);
    }
    destroySlots(OldSlots, OldCapacity);
  }

  Slot *Slots = nullptr;
  size_t Capacity = 0;
  /// 64 - log2(Capacity): slotFor() keeps this many top product bits.
  /// Meaningless while Capacity == 0 (every probe path checks Live or
  /// Slots first, and the first insert rehashes before probing).
  unsigned Shift = 64;
  size_t Live = 0;       ///< Entries holding a value.
  size_t Used = 0;       ///< Live + tombstones (probe-chain occupancy).
  size_t Tombstones = 0;
  size_t RehashCount = 0; ///< Slot-array reallocations (pointer epochs).
  uint64_t *Bitmap = nullptr; ///< One presence bit per key < BitmapKeys.
  size_t BitmapKeys = 0;      ///< Keys the bitmap covers (64 per word).
  bool Overflow = false;      ///< A key >= BitmapKeyCap went in since clear().
};

} // namespace pacer

#endif // PACER_CORE_FLATVARTABLE_H
