//===- support/Binary.h - Little-endian buffer (de)serialization *- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounds-checked little-endian encoding into / out of byte buffers, plus
/// the FNV-1a 64-bit checksum the persistent formats append. Shared by
/// the FleetAggregator snapshot format, the daemon's snapshot wrapper,
/// and the submission framing -- everything that writes structured bytes
/// to disk or a socket and must reject corruption on the way back in
/// (this codebase builds with -fno-exceptions, so every read path returns
/// explicit success/failure instead of throwing).
///
/// BinReader never aborts on malformed input: reads past the end flip a
/// sticky failed() flag and return zeros, so a decoder can run straight
/// through and check once at the end (the pattern the snapshot and frame
/// decoders use). Trace files do not use it: their fixed 24-byte header
/// is checked against the file size before any field is trusted
/// (sim/TraceIO.h).
///
//===----------------------------------------------------------------------===//

#ifndef PACER_SUPPORT_BINARY_H
#define PACER_SUPPORT_BINARY_H

#include <cstdint>
#include <cstring>
#include <vector>

namespace pacer {

/// FNV-1a 64-bit over \p Size bytes, seedable for incremental use.
inline uint64_t fnv1a64(const void *Data, size_t Size,
                        uint64_t Seed = 0xcbf29ce484222325ULL) {
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t Hash = Seed;
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

/// Appends little-endian scalars to a growable byte buffer.
class BinWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }

  void u16(uint16_t V) {
    for (int I = 0; I < 2; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  /// Doubles travel as their IEEE-754 bit pattern, so a round trip is
  /// bit-exact (including -0.0 and NaN payloads).
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }

  void bytes(const void *Data, size_t Size) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    Buf.insert(Buf.end(), P, P + Size);
  }

  size_t size() const { return Buf.size(); }
  const std::vector<uint8_t> &buffer() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }

  /// Appends fnv1a64 over everything written so far (the conventional
  /// trailer of the persistent formats).
  void appendChecksum() { u64(fnv1a64(Buf.data(), Buf.size())); }

private:
  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian reads with a sticky failure flag.
class BinReader {
public:
  BinReader(const void *Data, size_t Size)
      : Data(static_cast<const uint8_t *>(Data)), Size(Size) {}

  uint8_t u8() {
    if (!need(1))
      return 0;
    return Data[Pos++];
  }

  uint16_t u16() {
    if (!need(2))
      return 0;
    uint16_t V = 0;
    for (int I = 0; I < 2; ++I)
      V |= static_cast<uint16_t>(Data[Pos + I]) << (8 * I);
    Pos += 2;
    return V;
  }

  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos + I]) << (8 * I);
    Pos += 4;
    return V;
  }

  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += 8;
    return V;
  }

  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }

  bool bytes(void *Out, size_t Count) {
    if (!need(Count))
      return false;
    std::memcpy(Out, Data + Pos, Count);
    Pos += Count;
    return true;
  }

  /// Reads and verifies the fnv1a64 trailer over the bytes before it;
  /// fails the reader on mismatch or short input.
  bool checkChecksum() {
    if (!need(8))
      return false;
    uint64_t Expected = fnv1a64(Data, Pos);
    return u64() == Expected && !Failed;
  }

  size_t position() const { return Pos; }
  size_t remaining() const { return Failed ? 0 : Size - Pos; }
  bool failed() const { return Failed; }
  /// True when every byte was consumed and nothing ran short.
  bool exhausted() const { return !Failed && Pos == Size; }

private:
  bool need(size_t Count) {
    if (Failed || Size - Pos < Count) {
      Failed = true;
      return false;
    }
    return true;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace pacer

#endif // PACER_SUPPORT_BINARY_H
