//===- sim/TraceView.cpp --------------------------------------------------==//

#include "sim/TraceView.h"

#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace pacer;

TraceView::~TraceView() { reset(); }

void TraceView::reset() {
  if (Map)
    ::munmap(Map, MapBytes);
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
  // A loaded trace's records were checked as they were read.
  if (!View.mapped())
    return View;
  const char *Why = nullptr;
  if (const size_t Bad = firstInvalidRecord(View.Span, Why);
      Bad < View.Span.size()) {
    View.reset();
    View.Error = invalidRecordError(Path, Why, Bad);
  }
  return View;
}

bool TraceView::mapBinary(const std::string &Path) {
  const int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return false;
  struct stat St;
  void *Base = MAP_FAILED;
  size_t FileBytes = 0;
  if (::fstat(Fd, &St) == 0 && St.st_size > 0) {
    FileBytes = static_cast<size_t>(St.st_size);
    Base = ::mmap(nullptr, FileBytes, PROT_READ, MAP_PRIVATE, Fd, 0);
  }
  ::close(Fd); // The mapping outlives the descriptor.
  if (Base == MAP_FAILED)
    return false;
  const auto *Bytes = static_cast<const unsigned char *>(Base);
  if (traceFormatOf(Bytes[0]) != TraceFormat::Binary) {
    ::munmap(Base, FileBytes);
    return false;
  }
  Map = Base;
  MapBytes = FileBytes;
  uint64_t Count = 0;
  Error = checkBinaryTraceHeader(Path, Bytes, FileBytes, Count);
  if (!Error.empty()) {
    reset(); // Keeps Error.
    return true;
  }
  Span = TraceSpan(
      reinterpret_cast<const Action *>(Bytes + BinaryTraceHeaderBytes),
      static_cast<size_t>(Count));
  Ok = true;
  return true;
}

TraceView TraceView::map(const std::string &Path, bool ForceBuffered) {
  TraceView View;
  if (!ForceBuffered && actionLayoutMatchesBinaryRecord() &&
      View.mapBinary(Path))
    return View;
  // Everything the mapping did not settle -- a text trace, an ABI whose
  // Action layout differs from the record encoding, a file that cannot
  // be opened, is empty, or does not map -- loads through readTraceFile,
  // which also gives the diagnostic.
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
