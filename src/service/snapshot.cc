#include "service/snapshot.h"

#include <cstdio>
#include <string_view>

#include "io/text_codec.h"
#include "service/wal.h"  // FileSyncer
#include "util/crc32.h"
#include "util/fault_injector.h"

namespace mbta {

bool WriteSnapshot(const ServiceState& state, const std::string& path,
                   std::string* error, FaultInjector* faults,
                   FileSyncer* syncer) {
  MaybeFail(faults, "service/snapshot/write");
  if (syncer == nullptr) syncer = FileSyncer::Real();
  const std::string body = SerializeServiceState(state);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    SetError(error, "cannot open snapshot temp file: " + tmp);
    return false;
  }
  std::string sealed = body;
  AppendKeyword("checksum", Crc32(body), &sealed);
  const bool written =
      std::fwrite(sealed.data(), 1, sealed.size(), file) == sealed.size() &&
      syncer->Sync(file);
  std::fclose(file);
  if (!written) {
    SetError(error, "cannot write snapshot: " + tmp);
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    SetError(error, "cannot rename snapshot into place: " + path);
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<ServiceState> ReadSnapshot(const std::string& path,
                                         std::string* error) {
  std::string buffer;
  if (!ReadFile(path, &buffer)) {
    SetError(error, "cannot open snapshot: " + path);
    return std::nullopt;
  }
  const std::string_view contents = buffer;
  // The trailer is the last non-empty line; everything before it is the
  // checksummed body. Verify before parsing a single field.
  const std::size_t trailer_at = contents.rfind("checksum ");
  if (trailer_at == std::string_view::npos ||
      (trailer_at != 0 && contents[trailer_at - 1] != '\n')) {
    SetError(error, "snapshot missing checksum trailer: " + path);
    return std::nullopt;
  }
  FieldCursor trailer(contents.substr(trailer_at));
  std::uint32_t want = 0;
  if (!trailer.Expect("checksum") || !trailer.Take(&want) || !trailer.Done()) {
    SetError(error, "snapshot has malformed checksum trailer: " + path);
    return std::nullopt;
  }
  const std::string_view body = contents.substr(0, trailer_at);
  if (Crc32(body) != want) {
    SetError(error, "snapshot checksum mismatch: " + path);
    return std::nullopt;
  }
  std::string why;
  std::optional<ServiceState> state = ParseServiceState(body, &why);
  if (!state.has_value()) {
    SetError(error, "snapshot parse error: " + why);
    return std::nullopt;
  }
  return state;
}

}  // namespace mbta
