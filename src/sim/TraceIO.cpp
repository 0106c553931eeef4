//===- sim/TraceIO.cpp ----------------------------------------------------==//

#include "sim/TraceIO.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

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
  std::string Out = "pacer-trace v1 " + std::to_string(T.size()) + "\n";
  for (const Action &A : T) {
    Out += kindToken(A.Kind);
    Out += ' ';
    appendField(Out, A.Tid);
    Out += ' ';
    appendField(Out, A.Target);
    Out += ' ';
    appendField(Out, A.Site);
    Out += '\n';
  }
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
  if (KindByte > MaxKindByte)
    return false;
  A.Kind = static_cast<ActionKind>(KindByte);
  A.Tid = Word0 >> 8;
  A.Target = getLE32(In + 4);
  A.Site = getLE32(In + 8);
  return true;
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

namespace {

/// Validates a v2 header; returns false with \p Why set.
bool checkBinaryHeader(const unsigned char *Header, size_t Len,
                       uint64_t &Count, const char *&Why) {
  if (Len < BinaryTraceHeaderBytes) {
    Why = "truncated header";
    return false;
  }
  if (std::memcmp(Header, BinaryTraceMagic, 8) != 0) {
    Why = "bad binary trace magic";
    return false;
  }
  if (getLE32(Header + 8) != BinaryTraceVersion) {
    Why = "unsupported binary trace version";
    return false;
  }
  if (getLE32(Header + 12) != 0) {
    Why = "unsupported binary trace flags";
    return false;
  }
  Count = static_cast<uint64_t>(getLE32(Header + 16)) |
          (static_cast<uint64_t>(getLE32(Header + 20)) << 32);
  return true;
}

} // namespace

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
  bool Ok = true;
  {
    std::string Header =
        "pacer-trace v1 " + std::to_string(T.size()) + "\n";
    Ok = std::fwrite(Header.data(), 1, Header.size(), File) == Header.size();
  }
  std::string Slab;
  for (size_t Begin = 0; Ok && Begin < T.size(); Begin += SlabActions) {
    const size_t End = std::min(T.size(), Begin + SlabActions);
    Slab.clear();
    for (size_t I = Begin; I < End; ++I) {
      const Action &A = T[I];
      Slab += kindToken(A.Kind);
      Slab += ' ';
      appendField(Slab, A.Tid);
      Slab += ' ';
      appendField(Slab, A.Target);
      Slab += ' ';
      appendField(Slab, A.Site);
      Slab += '\n';
    }
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

bool pacer::detectTraceFileFormat(const std::string &Path,
                                  TraceFormat &Format, std::string &Error) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    Error = "cannot open " + Path;
    return false;
  }
  int First = std::fgetc(File);
  std::fclose(File);
  if (First == EOF) {
    Error = Path + ": empty file";
    return false;
  }
  Format = static_cast<unsigned char>(First) == BinaryTraceMagic0
               ? TraceFormat::Binary
               : TraceFormat::Text;
  return true;
}

namespace {

TraceParseResult readBinaryTraceFile(const std::string &Path,
                                     std::FILE *File) {
  TraceParseResult Result;
  unsigned char Header[BinaryTraceHeaderBytes];
  const size_t Got = std::fread(Header, 1, sizeof(Header), File);
  uint64_t Count = 0;
  const char *Why = nullptr;
  if (!checkBinaryHeader(Header, Got, Count, Why)) {
    Result.Error = Path + ": " + Why;
    return Result;
  }

  // Check the promised count against the bytes actually present before
  // sizing anything by it: a corrupt header must produce a diagnostic,
  // not a count-sized allocation (this build has no exceptions, so an
  // absurd reserve would abort the process).
  const long DataStart = std::ftell(File);
  if (DataStart < 0 || std::fseek(File, 0, SEEK_END) != 0) {
    Result.Error = Path + ": cannot determine file size";
    return Result;
  }
  const long FileEnd = std::ftell(File);
  if (FileEnd < DataStart ||
      std::fseek(File, DataStart, SEEK_SET) != 0) {
    Result.Error = Path + ": cannot determine file size";
    return Result;
  }
  const uint64_t BodyBytes = static_cast<uint64_t>(FileEnd - DataStart);
  if (Count > BodyBytes / BinaryTraceRecordBytes) {
    Result.Error = Path + ": truncated trace (header promises " +
                   std::to_string(Count) + " records)";
    return Result;
  }

  Result.T.reserve(Count);
  const bool Bulk = actionLayoutMatchesBinaryRecord();
  constexpr size_t SlabRecords = 16 << 10;
  std::vector<unsigned char> Slab(SlabRecords * BinaryTraceRecordBytes);
  uint64_t Remaining = Count;
  while (Remaining > 0) {
    const size_t Want = static_cast<size_t>(
        std::min<uint64_t>(Remaining, SlabRecords));
    const size_t Bytes =
        std::fread(Slab.data(), 1, Want * BinaryTraceRecordBytes, File);
    const size_t Records = Bytes / BinaryTraceRecordBytes;
    if (Records == 0 || Bytes % BinaryTraceRecordBytes != 0) {
      Result.Error = Path + ": truncated trace (header promises " +
                     std::to_string(Count) + " records)";
      return Result;
    }
    const uint64_t First = Count - Remaining;
    if (Bulk) {
      // Even on the bulk path every record is validated: a corrupt
      // record must fail loudly, not dispatch as garbage.
      const TraceSpan Actions(reinterpret_cast<const Action *>(Slab.data()),
                              Records);
      const char *Why = nullptr;
      if (const size_t Bad = firstInvalidRecord(Actions, Why);
          Bad < Records) {
        Result.Error = invalidRecordError(Path, Why, First + Bad);
        return Result;
      }
      Result.T.insert(Result.T.end(), Actions.begin(), Actions.end());
    } else {
      for (size_t I = 0; I < Records; ++I) {
        Action A;
        const char *Why =
            unpackBinaryRecord(Slab.data() + I * BinaryTraceRecordBytes, A)
                ? validateActionRecord(A)
                : "bad action kind";
        if (Why) {
          Result.Error = invalidRecordError(Path, Why, First + I);
          return Result;
        }
        Result.T.push_back(A);
      }
    }
    Remaining -= Records;
  }
  if (std::fgetc(File) != EOF) {
    Result.Error = Path + ": trailing bytes after " +
                   std::to_string(Count) + " records";
    return Result;
  }
  Result.Ok = true;
  return Result;
}

TraceParseResult readTextTraceFile(const std::string &Path,
                                   std::FILE *File) {
  TraceParseResult Result;
  TextTraceParser Parser;
  char Buf[1 << 16];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), File)) > 0) {
    Parser.append(Buf, Got);
    if (!Parser.drain(Result.T, SIZE_MAX)) {
      Result.Error = Parser.error();
      return Result;
    }
  }
  if (!Parser.finish(Result.T, SIZE_MAX)) {
    Result.Error = Parser.error();
    return Result;
  }
  Result.Ok = true;
  return Result;
}

} // namespace

TraceParseResult pacer::readTraceFile(const std::string &Path,
                                      TraceFormat *Format) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    TraceParseResult Result;
    Result.Error = "cannot open " + Path;
    return Result;
  }
  const int First = std::fgetc(File);
  if (First == EOF) {
    std::fclose(File);
    TraceParseResult Result;
    Result.Error = "line 1: empty input";
    return Result;
  }
  std::rewind(File);
  const TraceFormat Detected =
      static_cast<unsigned char>(First) == BinaryTraceMagic0
          ? TraceFormat::Binary
          : TraceFormat::Text;
  TraceParseResult Result = Detected == TraceFormat::Binary
                                ? readBinaryTraceFile(Path, File)
                                : readTextTraceFile(Path, File);
  std::fclose(File);
  if (Result.Ok && Format)
    *Format = Detected;
  return Result;
}
