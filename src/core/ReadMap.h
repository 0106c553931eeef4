//===- core/ReadMap.h - FastTrack/PACER read metadata ----------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-variable read metadata. FastTrack stores either an epoch (when reads
/// are totally ordered) or a full read map/vector (when reads are
/// concurrent); the paper folds both into a *read map* mapping zero or more
/// threads to clock values (Section 2.2). PACER additionally allows the
/// null state (zero entries, equivalent to 0@0) and removes individual
/// entries during non-sampling periods (Table 4 Rule 3).
///
/// The representation matters semantically: a map that has shrunk to one
/// entry is still "in VC state" for the purposes of Table 4's rule
/// dispatch, so this class never silently deflates a map into an epoch;
/// only the explicit FastTrack read rule does that.
///
/// Each entry carries the site of the recorded access so race reports can
/// name the first access (Section 4, "Reporting Races").
///
/// Map-state entry arrays are raw blocks from the current thread's bound
/// Arena (the owning detector's metadata arena on the access hot path),
/// so inflating, growing, and discarding read maps never touches the
/// general-purpose heap during replay. ReadMap is move-only; the block
/// header routes the eventual free back to the allocating arena no
/// matter where the map moves.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_CORE_READMAP_H
#define PACER_CORE_READMAP_H

#include "core/Epoch.h"
#include "core/Ids.h"
#include "core/VectorClock.h"
#include "support/Arena.h"

#include <cassert>
#include <cstdint>

namespace pacer {

/// One recorded read: the reader's clock value and the program site.
struct ReadEntry {
  ThreadId Tid;
  uint32_t Clock;
  SiteId Site;
};

/// Read metadata in one of three states: Null (no information), Epoch
/// (totally ordered reads), or Map (concurrent reads).
class ReadMap {
public:
  enum class Kind : uint8_t { Null, Epoch, Map };

  ReadMap() = default;
  ReadMap(ReadMap &&Other) noexcept
      : E(Other.E), ESite(Other.ESite), Entries(Other.Entries),
        Num(Other.Num), Cap(Other.Cap) {
    Other.release();
  }
  ReadMap &operator=(ReadMap &&Other) noexcept {
    if (this != &Other) {
      if (Entries)
        Arena::freeBlock(Entries);
      E = Other.E;
      ESite = Other.ESite;
      Entries = Other.Entries;
      Num = Other.Num;
      Cap = Other.Cap;
      Other.release();
    }
    return *this;
  }
  ReadMap(const ReadMap &) = delete;
  ReadMap &operator=(const ReadMap &) = delete;
  ~ReadMap() {
    if (Entries)
      Arena::freeBlock(Entries);
  }

  Kind kind() const {
    if (Entries)
      return Kind::Map;
    return E.isNone() ? Kind::Null : Kind::Epoch;
  }
  bool isNull() const { return kind() == Kind::Null; }
  bool isEpoch() const { return kind() == Kind::Epoch; }
  bool isMap() const { return kind() == Kind::Map; }

  /// Number of recorded reads (0, 1, or the map size). Note a map may
  /// legitimately have size 0 or 1 after PACER discards entries.
  size_t size() const;

  // The epoch-state operations below run on nearly every access the
  // detectors analyse, so they are inline; map-state work is out of line.

  /// The epoch; only valid in the Epoch state.
  Epoch epoch() const {
    assert(isEpoch() && "not in epoch state");
    return E;
  }

  /// The site recorded with the epoch; only valid in the Epoch state.
  SiteId epochSite() const {
    assert(isEpoch() && "not in epoch state");
    return ESite;
  }

  /// Discards all information (PACER's null assignment).
  void clear() {
    E = Epoch::none();
    ESite = InvalidId;
    if (Entries) {
      Arena::freeBlock(Entries);
      release();
    }
  }

  /// Replaces the metadata with the single epoch \p NewEpoch (FastTrack's
  /// "overwrite read map" arm). Drops any map storage.
  void setEpoch(Epoch NewEpoch, SiteId Site) {
    assert(!NewEpoch.isNone() && "setting a null epoch; use clear()");
    E = NewEpoch;
    ESite = Site;
    if (Entries) {
      Arena::freeBlock(Entries);
      release();
    }
  }

  /// Converts the current epoch into map state ("Share", Table 4 Rule 4)
  /// and then records \p Tid's read. Must currently be in Epoch state.
  void inflateToMap();

  /// Records a read in map state: R[t] <- clock (Table 4 Rule 3 sampling
  /// arm). Must be in Map state.
  void setEntry(ThreadId Tid, uint32_t Clock, SiteId Site);

  /// Removes \p Tid's entry if present (Table 4 Rule 3 non-sampling arm).
  /// Must be in Map state. Returns true if the map is now empty.
  bool removeEntry(ThreadId Tid);

  /// Removes any information recorded for \p Tid regardless of state,
  /// collapsing to Null when nothing remains. Used when a thread slot is
  /// recycled (accordion clocks): the retired thread's accesses are
  /// dominated by every live thread, so they can no longer be the first
  /// access of a race.
  void removeThread(ThreadId Tid);

  /// Accordion compaction: rewrites every recorded thread id through
  /// \p OldToNew (indexed by old slot). Recorded ids always survive
  /// compaction -- recycled slots were scrubbed with removeThread first --
  /// so every lookup is in range and maps to a dense slot.
  void remapThreads(const uint32_t *OldToNew);

  /// True iff every recorded read precedes \p C (R <= C). Null is vacuously
  /// true. O(|R|).
  bool leqClock(const VectorClock &C) const {
    if (Entries)
      return mapLeqClock(C);
    return E.precedes(C); // Null epoch (0@0) precedes everything.
  }

  /// Invokes \p Fn(const ReadEntry &) for every recorded read that does
  /// NOT precede \p C, i.e. every read that races with a write at \p C.
  template <typename FnT>
  void forEachViolation(const VectorClock &C, FnT Fn) const {
    if (Entries) {
      for (uint32_t I = 0; I != Num; ++I)
        if (Entries[I].Clock > C.get(Entries[I].Tid))
          Fn(Entries[I]);
      return;
    }
    if (!E.isNone() && !E.precedes(C))
      Fn(ReadEntry{E.tid(), E.clockValue(), ESite});
  }

  /// Invokes \p Fn(const ReadEntry &) for every recorded read.
  template <typename FnT> void forEach(FnT Fn) const {
    if (Entries) {
      for (uint32_t I = 0; I != Num; ++I)
        Fn(Entries[I]);
      return;
    }
    if (!E.isNone())
      Fn(ReadEntry{E.tid(), E.clockValue(), ESite});
  }

  /// Heap bytes owned beyond sizeof(ReadMap), for the space model.
  size_t heapBytes() const;

private:
  ReadEntry *findEntry(ThreadId Tid);

  /// leqClock() in Map state.
  bool mapLeqClock(const VectorClock &C) const;

  /// Doubles the entry array's capacity (arena block swap).
  void growEntries();

  /// Forgets the entry storage without freeing it (move support).
  void release() {
    Entries = nullptr;
    Num = 0;
    Cap = 0;
  }

  Epoch E;                  // Valid iff Entries is null and E is not none.
  SiteId ESite = InvalidId;
  ReadEntry *Entries = nullptr; // Arena block; Map state iff non-null.
  uint32_t Num = 0;
  uint32_t Cap = 0;
};

} // namespace pacer

#endif // PACER_CORE_READMAP_H
