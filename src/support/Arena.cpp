//===- support/Arena.cpp --------------------------------------------------==//

#include "support/Arena.h"

#include <cassert>
#include <new>

using namespace pacer;

namespace {

thread_local Arena *CurrentArena = nullptr;

size_t roundUp16(size_t Bytes) { return (Bytes + 15) & ~size_t(15); }

} // namespace

Arena *Arena::current() { return CurrentArena; }

Arena::Scope::Scope(Arena *A) : Prev(CurrentArena) { CurrentArena = A; }
Arena::Scope::~Scope() { CurrentArena = Prev; }

Arena::~Arena() {
  for (const Slab &S : Slabs)
    ::operator delete(S.Base);
}

size_t Arena::classOf(size_t Bytes) {
  if (Bytes < MinBlockBytes)
    Bytes = MinBlockBytes;
  size_t Class = 4; // 2^4 == MinBlockBytes.
  while ((size_t(1) << Class) < Bytes)
    ++Class;
  assert(Class < NumClasses && "block beyond arena size classes");
  return Class;
}

void *Arena::carve(size_t TotalBytes) {
  while (CurSlab < Slabs.size()) {
    const Slab &S = Slabs[CurSlab];
    if (CurOffset + TotalBytes <= S.Bytes) {
      void *Out = S.Base + CurOffset;
      CurOffset += TotalBytes;
      return Out;
    }
    ++CurSlab;
    CurOffset = 0;
  }
  size_t SlabSize = TotalBytes > DefaultSlabBytes ? TotalBytes
                                                  : DefaultSlabBytes;
  char *Base = static_cast<char *>(::operator new(SlabSize));
  Slabs.push_back({Base, SlabSize});
  SlabBytesTotal += SlabSize;
  ++SlabAllocs;
  CurSlab = Slabs.size() - 1;
  CurOffset = TotalBytes;
  return Base;
}

void *Arena::allocate(size_t Bytes) {
  const size_t Class = classOf(Bytes);
  ++BlockAllocs;
  if (void *Block = FreeLists[Class]) {
    FreeLists[Class] = *static_cast<void **>(Block);
    // The header survives from the block's first allocation.
    return Block;
  }
  const size_t Payload = size_t(1) << Class;
  void *Raw = carve(sizeof(BlockHeader) + Payload);
  auto *H = static_cast<BlockHeader *>(Raw);
  H->Owner = this;
  H->Class = Class;
  return H + 1;
}

void Arena::reset() {
  for (void *&List : FreeLists)
    List = nullptr;
  CurSlab = 0;
  CurOffset = 0;
}

void *Arena::allocBlock(size_t Bytes) {
  if (Arena *A = CurrentArena)
    return A->allocate(Bytes);
  const size_t Payload = roundUp16(Bytes < MinBlockBytes ? MinBlockBytes
                                                         : Bytes);
  auto *H = static_cast<BlockHeader *>(
      ::operator new(sizeof(BlockHeader) + Payload));
  H->Owner = nullptr;
  H->Class = 0;
  return H + 1;
}

void Arena::freeBlock(void *Ptr) {
  if (!Ptr)
    return;
  auto *H = static_cast<BlockHeader *>(Ptr) - 1;
  Arena *Owner = H->Owner;
  if (!Owner) {
    ::operator delete(H);
    return;
  }
  *static_cast<void **>(Ptr) = Owner->FreeLists[H->Class];
  Owner->FreeLists[H->Class] = Ptr;
}
