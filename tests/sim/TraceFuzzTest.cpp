//===- tests/sim/TraceFuzzTest.cpp ----------------------------------------==//
//
// Mutation fuzzing of trace files, the library's main untrusted input. A
// fixed-seed stream of mutants of one valid binary image and one valid
// text image -- bit flips, byte overwrites, truncations, record-count
// edits, appended bytes, and splices of the two images -- is read every
// way the library reads a file (expectEveryReaderAgrees in TestUtil.h).
// Every path must accept or reject each mutant alike, give one
// diagnostic when it rejects, and read the same actions when it accepts.
// The stream is deterministic, so a failure's mutant index reproduces it.
//
//===----------------------------------------------------------------------===//

#include "sim/TraceIO.h"
#include "support/Rng.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace pacer;
using namespace pacer::test;

namespace {

/// A valid trace touching every action kind and the "-" (InvalidId)
/// fields, so mutants reach every branch of both decoders.
Trace seedTrace() {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .acq(1, 7)
                .write(1, 3, 42)
                .rel(1, 7)
                .volWrite(1, 2)
                .volRead(0, 2)
                .read(0, 3, 43)
                .exit(1)
                .join(0, 1)
                .take();
  T.push_back({ActionKind::AwaitVolatile, 0, 2, 1});
  T.push_back({ActionKind::ThreadExit, 0, InvalidId, InvalidId});
  return T;
}

/// One mutant of \p Binary (the v2 image of \p Records records) or
/// \p Text; \p What names the mutation.
std::string mutate(Rng &R, const std::string &Binary, const std::string &Text,
                   uint64_t Records, const char *&What) {
  const bool FromBinary = R.nextBool(0.5);
  std::string Bytes = FromBinary ? Binary : Text;
  switch (R.nextBelow(6)) {
  case 0:
    What = "bit flips";
    for (uint64_t I = 0, N = 1 + R.nextBelow(3); I < N; ++I)
      Bytes[R.nextBelow(Bytes.size())] ^=
          static_cast<char>(1 << R.nextBelow(8));
    break;
  case 1: {
    // A random byte, or one that the text grammar or the sniff reads.
    What = "byte overwrite";
    static const char Telling[] = {'\0', '\n', ' ', '-', '0', '9', 'p',
                                   static_cast<char>(BinaryTraceMagic0)};
    Bytes[R.nextBelow(Bytes.size())] =
        R.nextBool(0.5) ? Telling[R.nextBelow(sizeof(Telling))]
                        : static_cast<char>(R.next());
    break;
  }
  case 2:
    What = "truncation";
    Bytes.resize(R.nextBelow(Bytes.size()));
    break;
  case 3: {
    What = "count edit";
    Bytes = Binary;
    const uint64_t Counts[] = {Records - 1, Records + 1, Records * 2,
                               uint64_t(1) << 63};
    const uint64_t Count = Counts[R.nextBelow(4)];
    for (int I = 0; I < 8; ++I)
      Bytes[16 + I] = static_cast<char>(Count >> (8 * I));
    break;
  }
  case 4:
    What = "appended bytes";
    for (uint64_t I = 0, N = 1 + R.nextBelow(24); I < N; ++I)
      Bytes += static_cast<char>(R.next());
    break;
  default: {
    What = "splice";
    const std::string &Tail = FromBinary ? Text : Binary;
    Bytes.resize(R.nextBelow(Bytes.size() + 1));
    Bytes += Tail.substr(R.nextBelow(Tail.size() + 1));
    break;
  }
  }
  return Bytes;
}

TEST(TraceFuzzTest, EveryReaderAgreesOnEveryMutant) {
  const Trace T = seedTrace();
  const std::string Binary = binaryTraceImage(T);
  const std::string Text = serializeTrace(T);
  constexpr unsigned Mutants = 3000;
  Rng R(0xF022);
  unsigned Accepted = 0;
  std::string Path;
  for (unsigned I = 0; I < Mutants && !HasFailure(); ++I) {
    const char *What = nullptr;
    const std::string Bytes = mutate(R, Binary, Text, T.size(), What);
    SCOPED_TRACE("mutant " + std::to_string(I) + ": " + What);
    Path = writeTempFile("pacer_fuzz_mutant", Bytes);
    const size_t Window = 1 + R.nextBelow(5);
    Accepted += expectEveryReaderAgrees(Path, Window).empty();
  }
  std::remove(Path.c_str());
  // Both verdicts must be common, or the mutants probe one side only.
  EXPECT_GT(Accepted, Mutants / 20);
  EXPECT_LT(Accepted, Mutants - Mutants / 20);
}

} // namespace
