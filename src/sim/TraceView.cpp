//===- sim/TraceView.cpp --------------------------------------------------==//

#include "sim/TraceView.h"

#include <cstdio>
#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define PACER_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define PACER_HAVE_MMAP 0
#endif

using namespace pacer;

TraceView::~TraceView() { reset(); }

void TraceView::reset() {
#if PACER_HAVE_MMAP
  if (Map)
    ::munmap(Map, MapBytes);
#endif
  Map = nullptr;
  MapBytes = 0;
  Span = {};
  Buffer.clear();
  Ok = false;
}

TraceView::TraceView(TraceView &&Other) noexcept { *this = std::move(Other); }

TraceView &TraceView::operator=(TraceView &&Other) noexcept {
  if (this == &Other)
    return *this;
  reset();
  Ok = Other.Ok;
  Error = std::move(Other.Error);
  Map = std::exchange(Other.Map, nullptr);
  MapBytes = std::exchange(Other.MapBytes, 0);
  Buffer = std::move(Other.Buffer);
  // A mapped span is stable under the move; a buffered span must chase
  // the moved vector's storage.
  Span = Map != nullptr ? Other.Span : TraceSpan(Buffer);
  Other.Span = {};
  Other.Ok = false;
  Other.Buffer.clear();
  return *this;
}

TraceView TraceView::open(const std::string &Path, bool ForceBuffered) {
  TraceView View = map(Path, ForceBuffered);
  const char *Why = nullptr;
  if (View.ok()) {
    if (const size_t Bad = firstInvalidRecord(View.Span, Why);
        Bad < View.Span.size()) {
      std::string Err = invalidRecordError(Path, Why, Bad);
      View.reset();
      View.Error = std::move(Err);
    }
  }
  return View;
}

TraceView TraceView::map(const std::string &Path, bool ForceBuffered) {
  TraceView View;

#if PACER_HAVE_MMAP
  if (!ForceBuffered && actionLayoutMatchesBinaryRecord()) {
    const int Fd = ::open(Path.c_str(), O_RDONLY);
    if (Fd < 0) {
      View.Error = "cannot open " + Path;
      return View;
    }
    struct stat St;
    if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
      ::close(Fd);
      View.Error = "cannot stat " + Path;
      return View;
    }
    const auto FileBytes = static_cast<size_t>(St.st_size);
    if (FileBytes == 0) {
      ::close(Fd);
      View.Error = Path + ": empty file";
      return View;
    }
    void *Base = ::mmap(nullptr, FileBytes, PROT_READ, MAP_PRIVATE, Fd, 0);
    ::close(Fd); // The mapping outlives the descriptor.
    if (Base != MAP_FAILED) {
      const auto *Bytes = static_cast<const unsigned char *>(Base);
      if (Bytes[0] != BinaryTraceMagic0) {
        ::munmap(Base, FileBytes);
        View.Error = Path + ": not a binary trace (use readTraceFile or "
                            "traceconv for text traces)";
        return View;
      }
      View.Map = Base;
      View.MapBytes = FileBytes;
      // Header validation mirrors readTraceFile's.
      if (FileBytes < BinaryTraceHeaderBytes ||
          std::memcmp(Bytes, BinaryTraceMagic, 8) != 0) {
        std::string Err = Path + ": bad binary trace magic";
        View.reset();
        View.Error = std::move(Err);
        return View;
      }
      auto LE32 = [&](size_t Off) {
        return static_cast<uint32_t>(Bytes[Off]) |
               (static_cast<uint32_t>(Bytes[Off + 1]) << 8) |
               (static_cast<uint32_t>(Bytes[Off + 2]) << 16) |
               (static_cast<uint32_t>(Bytes[Off + 3]) << 24);
      };
      if (LE32(8) != BinaryTraceVersion || LE32(12) != 0) {
        std::string Err = Path + ": unsupported binary trace version";
        View.reset();
        View.Error = std::move(Err);
        return View;
      }
      const uint64_t Count = static_cast<uint64_t>(LE32(16)) |
                             (static_cast<uint64_t>(LE32(20)) << 32);
      // Bound the count by the bytes present before multiplying: a
      // corrupt 64-bit count must not wrap the size arithmetic into a
      // check that accidentally passes.
      const uint64_t MaxRecords =
          (FileBytes - BinaryTraceHeaderBytes) / BinaryTraceRecordBytes;
      if (Count > MaxRecords ||
          FileBytes !=
              BinaryTraceHeaderBytes + Count * BinaryTraceRecordBytes) {
        std::string Err = Path + ": truncated trace (header promises " +
                          std::to_string(Count) + " records)";
        View.reset();
        View.Error = std::move(Err);
        return View;
      }
      View.Span = TraceSpan(
          reinterpret_cast<const Action *>(Bytes + BinaryTraceHeaderBytes),
          static_cast<size_t>(Count));
      View.Ok = true;
      return View;
    }
    // mmap failed (unusual filesystem, resource limits): fall through to
    // the buffered load.
  }
#else
  (void)ForceBuffered;
#endif

  // Buffered fallback: a plain load through the slab reader. Also used
  // when the ABI's Action layout differs from the record encoding, which
  // the reader handles by unpacking.
  {
    TraceFormat Format;
    std::string DetectError;
    if (!detectTraceFileFormat(Path, Format, DetectError)) {
      View.Error = std::move(DetectError);
      return View;
    }
    if (Format != TraceFormat::Binary) {
      View.Error = Path + ": not a binary trace (use readTraceFile or "
                          "traceconv for text traces)";
      return View;
    }
    TraceParseResult Parsed = readTraceFile(Path);
    if (!Parsed.Ok) {
      View.Error = std::move(Parsed.Error);
      return View;
    }
    View.Buffer = std::move(Parsed.T);
    View.Span = TraceSpan(View.Buffer);
    View.Ok = true;
    return View;
  }
}
