//===- core/ReadMap.cpp ---------------------------------------------------==//

#include "core/ReadMap.h"

#include <cassert>
#include <cstring>

using namespace pacer;

size_t ReadMap::size() const {
  if (Entries)
    return Num;
  return E.isNone() ? 0 : 1;
}

void ReadMap::growEntries() {
  const uint32_t NewCap = Cap ? Cap * 2 : 2;
  auto *NewEntries =
      static_cast<ReadEntry *>(Arena::allocBlock(NewCap * sizeof(ReadEntry)));
  if (Num)
    std::memcpy(NewEntries, Entries, Num * sizeof(ReadEntry));
  Arena::freeBlock(Entries);
  Entries = NewEntries;
  Cap = NewCap;
}

void ReadMap::inflateToMap() {
  assert(isEpoch() && "can only inflate from epoch state");
  growEntries();
  Entries[0] = ReadEntry{E.tid(), E.clockValue(), ESite};
  Num = 1;
  E = Epoch::none();
  ESite = InvalidId;
}

ReadEntry *ReadMap::findEntry(ThreadId Tid) {
  assert(Entries && "not in map state");
  for (uint32_t I = 0; I != Num; ++I)
    if (Entries[I].Tid == Tid)
      return &Entries[I];
  return nullptr;
}

void ReadMap::setEntry(ThreadId Tid, uint32_t Clock, SiteId Site) {
  assert(Entries && "not in map state");
  if (ReadEntry *Entry = findEntry(Tid)) {
    Entry->Clock = Clock;
    Entry->Site = Site;
    return;
  }
  if (Num == Cap)
    growEntries();
  Entries[Num++] = ReadEntry{Tid, Clock, Site};
}

bool ReadMap::removeEntry(ThreadId Tid) {
  assert(Entries && "not in map state");
  for (uint32_t I = 0; I != Num; ++I) {
    if (Entries[I].Tid == Tid) {
      Entries[I] = Entries[Num - 1];
      --Num;
      break;
    }
  }
  return Num == 0;
}

void ReadMap::removeThread(ThreadId Tid) {
  switch (kind()) {
  case Kind::Null:
    return;
  case Kind::Epoch:
    if (E.tid() == Tid)
      clear();
    return;
  case Kind::Map:
    if (removeEntry(Tid))
      clear();
    return;
  }
}

void ReadMap::remapThreads(const uint32_t *OldToNew) {
  if (Entries) {
    for (uint32_t I = 0; I != Num; ++I)
      Entries[I].Tid = OldToNew[Entries[I].Tid];
    return;
  }
  if (!E.isNone())
    E = Epoch::make(E.clockValue(), OldToNew[E.tid()]);
}

bool ReadMap::mapLeqClock(const VectorClock &C) const {
  for (uint32_t I = 0; I != Num; ++I)
    if (Entries[I].Clock > C.get(Entries[I].Tid))
      return false;
  return true;
}

size_t ReadMap::heapBytes() const {
  return Entries ? Cap * sizeof(ReadEntry) : 0;
}
