//===- sim/TraceIO.cpp ----------------------------------------------------==//

#include "sim/TraceIO.h"

#include "sim/StreamingTraceReader.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

using namespace pacer;

static const char *kindToken(ActionKind Kind) {
  switch (Kind) {
  case ActionKind::Read:
    return "rd";
  case ActionKind::Write:
    return "wr";
  case ActionKind::Acquire:
    return "acq";
  case ActionKind::Release:
    return "rel";
  case ActionKind::Fork:
    return "fork";
  case ActionKind::Join:
    return "join";
  case ActionKind::VolatileRead:
    return "vrd";
  case ActionKind::VolatileWrite:
    return "vwr";
  case ActionKind::AwaitVolatile:
    return "await";
  case ActionKind::ThreadExit:
    return "exit";
  }
  return "?";
}

static bool tokenToKind(const std::string &Token, ActionKind &Kind) {
  static const struct {
    const char *Name;
    ActionKind Kind;
  } Table[] = {
      {"rd", ActionKind::Read},          {"wr", ActionKind::Write},
      {"acq", ActionKind::Acquire},      {"rel", ActionKind::Release},
      {"fork", ActionKind::Fork},        {"join", ActionKind::Join},
      {"vrd", ActionKind::VolatileRead}, {"vwr", ActionKind::VolatileWrite},
      {"await", ActionKind::AwaitVolatile},
      {"exit", ActionKind::ThreadExit},
  };
  for (const auto &Entry : Table) {
    if (Token == Entry.Name) {
      Kind = Entry.Kind;
      return true;
    }
  }
  return false;
}

static void appendField(std::string &Out, uint32_t Value) {
  if (Value == InvalidId) {
    Out += '-';
    return;
  }
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu32, Value);
  Out += Buf;
}

static std::string textHeader(size_t Count) {
  std::string Header = "pacer-trace v1 ";
  Header += std::to_string(Count);
  Header += '\n';
  return Header;
}

/// Appends \p A as one text line: the one formatter behind
/// serializeTrace and writeTraceFile.
static void appendTextRecord(std::string &Out, const Action &A) {
  Out += kindToken(A.Kind);
  Out += ' ';
  appendField(Out, A.Tid);
  Out += ' ';
  appendField(Out, A.Target);
  Out += ' ';
  appendField(Out, A.Site);
  Out += '\n';
}

const char *pacer::traceFormatName(TraceFormat Format) {
  return Format == TraceFormat::Text ? "text" : "binary";
}

bool pacer::parseTraceFormat(const std::string &Text, TraceFormat &Format) {
  if (Text == "text") {
    Format = TraceFormat::Text;
    return true;
  }
  if (Text == "binary") {
    Format = TraceFormat::Binary;
    return true;
  }
  return false;
}

std::string pacer::serializeTrace(TraceSpan T) {
  std::string Out = textHeader(T.size());
  for (const Action &A : T)
    appendTextRecord(Out, A);
  return Out;
}

//===----------------------------------------------------------------------===//
// Binary record packing
//===----------------------------------------------------------------------===//

static constexpr uint8_t MaxKindByte =
    static_cast<uint8_t>(ActionKind::ThreadExit);

static void putLE32(unsigned char *Out, uint32_t Value) {
  Out[0] = static_cast<unsigned char>(Value);
  Out[1] = static_cast<unsigned char>(Value >> 8);
  Out[2] = static_cast<unsigned char>(Value >> 16);
  Out[3] = static_cast<unsigned char>(Value >> 24);
}

static uint32_t getLE32(const unsigned char *In) {
  return static_cast<uint32_t>(In[0]) | (static_cast<uint32_t>(In[1]) << 8) |
         (static_cast<uint32_t>(In[2]) << 16) |
         (static_cast<uint32_t>(In[3]) << 24);
}

bool pacer::actionLayoutMatchesBinaryRecord() {
  static const bool Matches = [] {
    const Action Probe{ActionKind::ThreadExit, 0x00ABCDEFu, 0x11223344u,
                       0x55667788u};
    unsigned char Expect[BinaryTraceRecordBytes];
    putLE32(Expect, static_cast<uint32_t>(MaxKindByte) | (0x00ABCDEFu << 8));
    putLE32(Expect + 4, 0x11223344u);
    putLE32(Expect + 8, 0x55667788u);
    return std::memcmp(&Probe, Expect, BinaryTraceRecordBytes) == 0;
  }();
  return Matches;
}

void pacer::packBinaryRecord(const Action &A, unsigned char *Out) {
  putLE32(Out, static_cast<uint32_t>(static_cast<uint8_t>(A.Kind)) |
                   (static_cast<uint32_t>(A.Tid) << 8));
  putLE32(Out + 4, A.Target);
  putLE32(Out + 8, A.Site);
}

bool pacer::unpackBinaryRecord(const unsigned char *In, Action &A) {
  const uint32_t Word0 = getLE32(In);
  const uint8_t KindByte = static_cast<uint8_t>(Word0);
  A.Kind = static_cast<ActionKind>(KindByte);
  A.Tid = Word0 >> 8;
  A.Target = getLE32(In + 4);
  A.Site = getLE32(In + 8);
  return KindByte <= MaxKindByte;
}

size_t pacer::firstInvalidRecord(TraceSpan T, const char *&Why) {
  for (size_t I = 0; I < T.size(); ++I) {
    if (const char *Bad = validateActionRecord(T[I])) {
      Why = Bad;
      return I;
    }
  }
  return T.size();
}

std::string pacer::invalidRecordError(const std::string &Path,
                                      const char *Why, uint64_t Record) {
  return Path + ": " + Why + " in record " + std::to_string(Record);
}

void pacer::packBinaryHeader(uint64_t Count, unsigned char *Out) {
  std::memcpy(Out, BinaryTraceMagic, 8);
  putLE32(Out + 8, BinaryTraceVersion);
  putLE32(Out + 12, 0); // Flags, reserved.
  putLE32(Out + 16, static_cast<uint32_t>(Count));
  putLE32(Out + 20, static_cast<uint32_t>(Count >> 32));
}

std::string pacer::checkBinaryTraceHeader(const std::string &Path,
                                          const unsigned char *Header,
                                          uint64_t FileBytes,
                                          uint64_t &Count) {
  std::string Error = Path + ": ";
  if (FileBytes < BinaryTraceHeaderBytes)
    return Error += "truncated header";
  if (std::memcmp(Header, BinaryTraceMagic, 8) != 0)
    return Error += "bad binary trace magic";
  if (getLE32(Header + 8) != BinaryTraceVersion)
    return Error += "unsupported binary trace version";
  if (getLE32(Header + 12) != 0)
    return Error += "unsupported binary trace flags";
  Count = static_cast<uint64_t>(getLE32(Header + 16)) |
          (static_cast<uint64_t>(getLE32(Header + 20)) << 32);
  // Bound the count by the bytes present before multiplying: a corrupt
  // 64-bit count must not wrap the size arithmetic into a check that
  // accidentally passes.
  const uint64_t BodyBytes = FileBytes - BinaryTraceHeaderBytes;
  const bool Short = Count > BodyBytes / BinaryTraceRecordBytes;
  if (!Short && BodyBytes == Count * BinaryTraceRecordBytes)
    return {};
  Error += Short ? "truncated trace (header promises "
                 : "trailing bytes after ";
  Error += std::to_string(Count);
  Error += Short ? " records)" : " records";
  return Error;
}

//===----------------------------------------------------------------------===//
// Text parsing
//===----------------------------------------------------------------------===//

namespace {

/// Minimal whitespace tokenizer over one line.
class LineLexer {
public:
  LineLexer(const char *Begin, const char *End) : Pos(Begin), End(End) {}

  bool next(std::string &Token) {
    while (Pos < End && *Pos == ' ')
      ++Pos;
    if (Pos >= End)
      return false;
    const char *Start = Pos;
    while (Pos < End && *Pos != ' ')
      ++Pos;
    Token.assign(Start, Pos - Start);
    return true;
  }

private:
  const char *Pos;
  const char *End;
};

bool parseField(const std::string &Token, uint32_t &Value) {
  if (Token == "-") {
    Value = InvalidId;
    return true;
  }
  if (Token.empty())
    return false;
  uint64_t Parsed = 0;
  for (char C : Token) {
    if (C < '0' || C > '9')
      return false;
    Parsed = Parsed * 10 + static_cast<uint64_t>(C - '0');
    if (Parsed > UINT32_MAX)
      return false;
  }
  Value = static_cast<uint32_t>(Parsed);
  return true;
}

} // namespace

bool TextTraceParser::failLine(const char *Why) {
  Failed = true;
  Error = "line " + std::to_string(LineNo) + ": " + Why;
  return false;
}

bool TextTraceParser::parseLine(const char *Begin, const char *End,
                                Trace &Out) {
  if (!SawHeader) {
    LineLexer Lexer(Begin, End);
    std::string Magic, Version, Count;
    if (!Lexer.next(Magic) || Magic != "pacer-trace")
      return failLine("missing pacer-trace magic");
    if (!Lexer.next(Version) || Version != "v1")
      return failLine("unsupported version");
    if (!Lexer.next(Count))
      return failLine("missing action count");
    SawHeader = true;
    return true;
  }
  if (Begin == End)
    return true; // Blank line.
  LineLexer Lexer(Begin, End);
  std::string KindToken, TidToken, TargetToken, SiteToken;
  if (!Lexer.next(KindToken) || !Lexer.next(TidToken) ||
      !Lexer.next(TargetToken) || !Lexer.next(SiteToken))
    return failLine("expected 4 fields");
  ActionKind Kind;
  uint32_t Tid, Target, Site;
  if (!tokenToKind(KindToken, Kind))
    return failLine("unknown action kind");
  if (!parseField(TidToken, Tid) || Tid > MaxActionTid)
    return failLine("bad thread id");
  if (!parseField(TargetToken, Target))
    return failLine("bad target");
  if (!parseField(SiteToken, Site))
    return failLine("bad site");
  std::string Extra;
  if (Lexer.next(Extra))
    return failLine("trailing tokens");
  const Action A{Kind, Tid, Target, Site};
  if (const char *Bad = validateActionRecord(A))
    return failLine(Bad);
  Out.push_back(A);
  return true;
}

void TextTraceParser::append(const char *Data, size_t Len) {
  // Compact consumed bytes before growing: the buffer never holds more
  // than the unparsed tail plus one append, so text loading is O(window).
  if (Pos > 0 && (Pos == Buf.size() || Pos >= (64u << 10))) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
  Buf.append(Data, Len);
}

bool TextTraceParser::drain(Trace &Out, size_t Max) {
  if (Failed)
    return false;
  size_t Produced = 0;
  while (Produced < Max) {
    const size_t Newline = Buf.find('\n', Pos);
    if (Newline == std::string::npos) {
      if (!Finished || Pos >= Buf.size())
        return true; // Need more input (or fully drained).
      // Final line without a trailing newline.
      ++LineNo;
      const size_t Before = Out.size();
      if (!parseLine(Buf.data() + Pos, Buf.data() + Buf.size(), Out))
        return false;
      Pos = Buf.size();
      Produced += Out.size() - Before;
      return true;
    }
    ++LineNo;
    const size_t Before = Out.size();
    if (!parseLine(Buf.data() + Pos, Buf.data() + Newline, Out))
      return false;
    Pos = Newline + 1;
    Produced += Out.size() - Before;
  }
  return true;
}

bool TextTraceParser::finish(Trace &Out, size_t Max) {
  Finished = true;
  if (!Failed && !SawHeader && Buf.size() == Pos) {
    LineNo = 1;
    return failLine("empty input");
  }
  return drain(Out, Max);
}

TraceParseResult pacer::parseTrace(const std::string &Text) {
  TraceParseResult Result;
  TextTraceParser Parser;
  Parser.append(Text.data(), Text.size());
  if (!Parser.finish(Result.T, SIZE_MAX)) {
    Result.Error = Parser.error();
    return Result;
  }
  Result.Ok = true;
  return Result;
}

//===----------------------------------------------------------------------===//
// Files
//===----------------------------------------------------------------------===//

bool pacer::writeTraceFile(const std::string &Path, TraceSpan T) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  // Serialize in slabs so writing a large trace never builds the whole
  // text image in memory.
  constexpr size_t SlabActions = 64 << 10;
  std::string Slab = textHeader(T.size());
  bool Ok = std::fwrite(Slab.data(), 1, Slab.size(), File) == Slab.size();
  for (size_t Begin = 0; Ok && Begin < T.size(); Begin += SlabActions) {
    const size_t End = std::min(T.size(), Begin + SlabActions);
    Slab.clear();
    for (size_t I = Begin; I < End; ++I)
      appendTextRecord(Slab, T[I]);
    Ok = std::fwrite(Slab.data(), 1, Slab.size(), File) == Slab.size();
  }
  Ok &= std::fclose(File) == 0;
  return Ok;
}

bool pacer::writeTraceFileBinary(const std::string &Path, TraceSpan T) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  unsigned char Header[BinaryTraceHeaderBytes];
  packBinaryHeader(T.size(), Header);
  bool Ok = std::fwrite(Header, 1, sizeof(Header), File) == sizeof(Header);
  if (Ok && !T.empty()) {
    if (actionLayoutMatchesBinaryRecord()) {
      // The records ARE the in-memory actions: one bulk write.
      const size_t Bytes = T.size() * BinaryTraceRecordBytes;
      Ok = std::fwrite(T.data(), 1, Bytes, File) == Bytes;
    } else {
      constexpr size_t SlabRecords = 16 << 10;
      unsigned char Slab[SlabRecords * BinaryTraceRecordBytes];
      size_t InSlab = 0;
      for (const Action &A : T) {
        packBinaryRecord(A, Slab + InSlab * BinaryTraceRecordBytes);
        if (++InSlab == SlabRecords) {
          Ok = std::fwrite(Slab, 1, sizeof(Slab), File) == sizeof(Slab);
          InSlab = 0;
          if (!Ok)
            break;
        }
      }
      if (Ok && InSlab > 0) {
        const size_t Bytes = InSlab * BinaryTraceRecordBytes;
        Ok = std::fwrite(Slab, 1, Bytes, File) == Bytes;
      }
    }
  }
  Ok &= std::fclose(File) == 0;
  return Ok;
}

bool pacer::writeTraceFile(const std::string &Path, TraceSpan T,
                           TraceFormat Format) {
  return Format == TraceFormat::Binary ? writeTraceFileBinary(Path, T)
                                       : writeTraceFile(Path, T);
}

TraceParseResult pacer::readTraceFile(const std::string &Path,
                                      TraceFormat *Format) {
  TraceParseResult Result;
  // 16k-action (192 KiB) windows stay cache-resident between the read and
  // the copy into the trace.
  StreamingTraceReader Reader(Path, size_t(16) << 10);
  // The header's count was checked against the file size, so reserving
  // by it is safe.
  if (Reader.totalActions())
    Result.T.reserve(*Reader.totalActions());
  for (TraceSpan Chunk = Reader.next(); !Chunk.empty(); Chunk = Reader.next())
    Result.T.insert(Result.T.end(), Chunk.begin(), Chunk.end());
  if (!Reader.ok()) {
    Result.Error = Reader.error();
    return Result;
  }
  if (Format)
    *Format = Reader.format();
  Result.Ok = true;
  return Result;
}
