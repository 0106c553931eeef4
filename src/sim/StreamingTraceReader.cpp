//===- sim/StreamingTraceReader.cpp ---------------------------------------==//

#include "sim/StreamingTraceReader.h"

#include <algorithm>
#include <cstring>

using namespace pacer;

StreamingTraceReader::StreamingTraceReader(const std::string &Path,
                                           size_t WindowActions)
    : Path(Path),
      Window(std::clamp<size_t>(WindowActions, 1, MaxWindowActions)) {
  File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    fail("cannot open " + Path);
    return;
  }
  const int First = std::fgetc(File);
  if (First == EOF) {
    fail(Path + ": empty file");
    return;
  }
  std::rewind(File);
  Format = static_cast<unsigned char>(First) == BinaryTraceMagic0
               ? TraceFormat::Binary
               : TraceFormat::Text;

  if (Format == TraceFormat::Binary) {
    unsigned char Header[BinaryTraceHeaderBytes];
    if (std::fread(Header, 1, sizeof(Header), File) != sizeof(Header)) {
      fail(Path + ": truncated header");
      return;
    }
    if (std::memcmp(Header, BinaryTraceMagic, 8) != 0) {
      fail(Path + ": bad binary trace magic");
      return;
    }
    auto LE32 = [&](size_t Off) {
      return static_cast<uint32_t>(Header[Off]) |
             (static_cast<uint32_t>(Header[Off + 1]) << 8) |
             (static_cast<uint32_t>(Header[Off + 2]) << 16) |
             (static_cast<uint32_t>(Header[Off + 3]) << 24);
    };
    if (LE32(8) != BinaryTraceVersion) {
      fail(Path + ": unsupported binary trace version");
      return;
    }
    if (LE32(12) != 0) {
      fail(Path + ": unsupported binary trace flags");
      return;
    }
    RemainingRecords = static_cast<uint64_t>(LE32(16)) |
                       (static_cast<uint64_t>(LE32(20)) << 32);
    Total = RemainingRecords;
  }
  WindowBuf.reserve(Window);
}

StreamingTraceReader::~StreamingTraceReader() {
  if (File)
    std::fclose(File);
}

void StreamingTraceReader::fail(std::string Why) {
  Error = std::move(Why);
  Done = true;
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}

TraceSpan StreamingTraceReader::next() {
  if (Done || !File)
    return {};
  TraceSpan Chunk =
      Format == TraceFormat::Binary ? nextBinary() : nextText();
  Delivered += Chunk.size();
  return Chunk;
}

TraceSpan StreamingTraceReader::nextBinary() {
  if (RemainingRecords == 0) {
    if (std::fgetc(File) != EOF) {
      fail(Path + ": trailing bytes after " + std::to_string(*Total) +
           " records");
      return {};
    }
    Done = true;
    std::fclose(File);
    File = nullptr;
    return {};
  }
  const size_t Want = static_cast<size_t>(
      std::min<uint64_t>(RemainingRecords, Window));
  WindowBuf.resize(Want);

  size_t Records;
  if (actionLayoutMatchesBinaryRecord()) {
    // The window buffer IS the record buffer: one fread per window.
    const size_t Bytes = std::fread(WindowBuf.data(), 1,
                                    Want * BinaryTraceRecordBytes, File);
    Records = Bytes / BinaryTraceRecordBytes;
    if (Records == 0 || Bytes % BinaryTraceRecordBytes != 0) {
      fail(Path + ": truncated trace (header promises " +
           std::to_string(*Total) + " records)");
      return {};
    }
    const char *Why = nullptr;
    if (const size_t Bad =
            firstInvalidRecord(TraceSpan(WindowBuf.data(), Records), Why);
        Bad < Records) {
      fail(invalidRecordError(Path, Why, *Total - RemainingRecords + Bad));
      return {};
    }
  } else {
    RawBuf.resize(Want * BinaryTraceRecordBytes);
    const size_t Bytes = std::fread(RawBuf.data(), 1, RawBuf.size(), File);
    Records = Bytes / BinaryTraceRecordBytes;
    if (Records == 0 || Bytes % BinaryTraceRecordBytes != 0) {
      fail(Path + ": truncated trace (header promises " +
           std::to_string(*Total) + " records)");
      return {};
    }
    for (size_t I = 0; I < Records; ++I) {
      const char *Why = unpackBinaryRecord(
                            RawBuf.data() + I * BinaryTraceRecordBytes,
                            WindowBuf[I])
                            ? validateActionRecord(WindowBuf[I])
                            : "bad action kind";
      if (Why) {
        fail(invalidRecordError(Path, Why, *Total - RemainingRecords + I));
        return {};
      }
    }
  }
  WindowBuf.resize(Records);
  RemainingRecords -= Records;
  return TraceSpan(WindowBuf);
}

TraceSpan StreamingTraceReader::nextText() {
  WindowBuf.clear();
  char Buf[1 << 16];
  while (WindowBuf.size() < Window) {
    if (!Parser.drain(WindowBuf, Window - WindowBuf.size())) {
      fail(Parser.error());
      return {};
    }
    if (WindowBuf.size() >= Window)
      break;
    if (SourceExhausted) {
      if (!Parser.finish(WindowBuf, Window - WindowBuf.size())) {
        fail(Parser.error());
        return {};
      }
      if (WindowBuf.empty()) {
        Done = true;
        std::fclose(File);
        File = nullptr;
      }
      return TraceSpan(WindowBuf);
    }
    const size_t Got = std::fread(Buf, 1, sizeof(Buf), File);
    if (Got == 0)
      SourceExhausted = true;
    else
      Parser.append(Buf, Got);
  }
  return TraceSpan(WindowBuf);
}
