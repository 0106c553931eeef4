//===- sim/StreamingTraceReader.cpp ---------------------------------------==//

#include "sim/StreamingTraceReader.h"

#include <algorithm>

#include <sys/stat.h>

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
  // The size comes from the descriptor: input without one (a pipe) reads
  // as empty, and a file shorter than a header is as long as the bytes
  // read.
  struct stat St;
  uint64_t FileBytes = ::fstat(::fileno(File), &St) == 0
                           ? static_cast<uint64_t>(St.st_size)
                           : 0;
  unsigned char Header[BinaryTraceHeaderBytes] = {};
  const size_t Got = std::fread(
      Header, 1, std::min<uint64_t>(FileBytes, sizeof(Header)), File);
  if (Got < sizeof(Header))
    FileBytes = Got;
  if (FileBytes == 0) {
    fail(Path + ": empty file");
    return;
  }
  Format = traceFormatOf(Header[0]);
  if (Format == TraceFormat::Text) {
    Parser.append(reinterpret_cast<const char *>(Header), Got);
  } else {
    uint64_t Count = 0;
    std::string Why = checkBinaryTraceHeader(Path, Header, FileBytes, Count);
    if (!Why.empty()) {
      fail(std::move(Why));
      return;
    }
    Total = RemainingRecords = Count;
  }
  WindowBuf.reserve(Window);
}

StreamingTraceReader::~StreamingTraceReader() { close(); }

void StreamingTraceReader::close() {
  Done = true;
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}

void StreamingTraceReader::fail(std::string Why) {
  Error = std::move(Why);
  close();
}

TraceSpan StreamingTraceReader::next() {
  if (Done)
    return {};
  TraceSpan Chunk =
      Format == TraceFormat::Binary ? nextBinary() : nextText();
  Delivered += Chunk.size();
  return Chunk;
}

TraceSpan StreamingTraceReader::nextBinary() {
  if (RemainingRecords == 0) {
    close();
    return {};
  }
  const size_t Want = static_cast<size_t>(
      std::min<uint64_t>(RemainingRecords, Window));
  WindowBuf.resize(Want);
  // On matching ABIs the window buffer IS the record buffer: one fread
  // per window.
  const bool Bulk = actionLayoutMatchesBinaryRecord();
  if (!Bulk)
    RawBuf.resize(Want * BinaryTraceRecordBytes);
  void *Raw = Bulk ? static_cast<void *>(WindowBuf.data()) : RawBuf.data();
  if (std::fread(Raw, BinaryTraceRecordBytes, Want, File) != Want) {
    // The size was checked at open, so only a file that shrank since
    // ends early.
    fail(Path + ": truncated trace (header promises " +
         std::to_string(*Total) + " records)");
    return {};
  }
  if (!Bulk)
    for (size_t I = 0; I < Want; ++I)
      unpackBinaryRecord(RawBuf.data() + I * BinaryTraceRecordBytes,
                         WindowBuf[I]);
  const char *Why = nullptr;
  if (const size_t Bad = firstInvalidRecord(WindowBuf, Why); Bad < Want) {
    fail(invalidRecordError(Path, Why, *Total - RemainingRecords + Bad));
    return {};
  }
  RemainingRecords -= Want;
  return TraceSpan(WindowBuf);
}

TraceSpan StreamingTraceReader::nextText() {
  WindowBuf.clear();
  char Buf[1 << 16];
  while (WindowBuf.size() < Window) {
    if (!Parser.drain(WindowBuf, Window - WindowBuf.size())) {
      fail(Path + ": " + Parser.error());
      return {};
    }
    if (WindowBuf.size() >= Window)
      break;
    if (SourceExhausted) {
      if (!Parser.finish(WindowBuf, Window - WindowBuf.size())) {
        fail(Path + ": " + Parser.error());
        return {};
      }
      if (WindowBuf.empty())
        close();
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
