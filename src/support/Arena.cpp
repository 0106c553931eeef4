//===- support/Arena.cpp --------------------------------------------------==//

#include "support/Arena.h"

#include <cassert>
#include <mutex>
#include <new>

#include <sys/mman.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#define ASAN_UNPOISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#endif

using namespace pacer;

namespace {

size_t roundUp16(size_t Bytes) { return (Bytes + 15) & ~size_t(15); }

// The process-wide pool of default-size slabs whose arena died, linked
// through each slab's first word and kept mapped for the next arena.
// Arenas are born and die on different ThreadPool workers, so one mutex
// guards the list; it is taken once per slab an arena takes and once per
// dying arena. A slab is mapped only when the pool is empty, so the pool
// and the live arenas together never hold more slabs than were live at
// once.
constinit std::mutex PoolLock;
constinit char *PoolHead = nullptr;

/// Takes a pooled slab of \p Bytes, or maps a new one.
char *takeSlab(size_t Bytes) {
  {
    std::lock_guard<std::mutex> Guard(PoolLock);
    if (char *Slab = PoolHead) {
      ASAN_UNPOISON_MEMORY_REGION(Slab, Bytes);
      PoolHead = *reinterpret_cast<char **>(Slab);
      return Slab;
    }
  }
  void *Mapped = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mapped != MAP_FAILED)
    return static_cast<char *>(Mapped);
  return static_cast<char *>(::operator new(Bytes));
}

} // namespace

Arena::~Arena() {
  for (const Slab &S : Slabs)
    if (S.Bytes != DefaultSlabBytes)
      ::operator delete(S.Base);
  // Default-size slabs outlive the arena: the pool poisons them for
  // AddressSanitizer until the next arena takes one.
  std::lock_guard<std::mutex> Guard(PoolLock);
  for (const Slab &S : Slabs) {
    if (S.Bytes != DefaultSlabBytes)
      continue;
    *reinterpret_cast<char **>(S.Base) = PoolHead;
    PoolHead = S.Base;
    ASAN_POISON_MEMORY_REGION(S.Base, S.Bytes);
  }
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
  // A block larger than a default slab gets a dedicated heap slab; only
  // default-size slabs are pooled.
  const bool Oversize = TotalBytes > DefaultSlabBytes;
  const size_t SlabSize = Oversize ? TotalBytes : DefaultSlabBytes;
  char *Base = Oversize ? static_cast<char *>(::operator new(SlabSize))
                        : takeSlab(SlabSize);
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
  if (Arena *A = Current)
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
