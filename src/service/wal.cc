#include "service/wal.h"

#include <unistd.h>

#include <cstring>

#include "io/text_codec.h"
#include "util/crc32.h"
#include "util/fault_injector.h"

namespace mbta {

namespace {

constexpr std::size_t kHeaderSize = sizeof(kWalMagic);
constexpr std::size_t kFrameHeaderSize = 8;  // u32 len + u32 crc
/// kEpoch payload body: u64 epoch, u8 mode, u32 num_deltas, u64
/// value_bits, u32 state_crc.
constexpr std::size_t kEpochBodySize = 8 + 1 + 4 + 8 + 4;

void PutU32(std::uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(std::uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint32_t GetU32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

std::uint64_t GetU64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

class RealFileSyncer : public FileSyncer {
 public:
  bool Sync(std::FILE* file) override {
    if (std::fflush(file) != 0) return false;
    return ::fsync(fileno(file)) == 0;
  }
};

}  // namespace

FileSyncer* FileSyncer::Real() {
  static RealFileSyncer syncer;
  return &syncer;
}

WalWriter::~WalWriter() { Close(); }

void WalWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool WalWriter::Open(const std::string& path, std::string* error,
                     FaultInjector* faults, FileSyncer* syncer) {
  Close();
  poisoned_ = false;
  faults_ = faults;
  syncer_ = syncer != nullptr ? syncer : FileSyncer::Real();
  // "a+b": reads anywhere, writes always append — exactly WAL semantics.
  file_ = std::fopen(path.c_str(), "a+b");
  if (file_ == nullptr) {
    SetError(error, "cannot open WAL for append: " + path);
    return false;
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    SetError(error, "cannot seek WAL: " + path);
    Close();
    return false;
  }
  const long size = std::ftell(file_);
  if (size == 0) {
    if (std::fwrite(kWalMagic, 1, kHeaderSize, file_) != kHeaderSize ||
        !syncer_->Sync(file_)) {
      SetError(error, "cannot write WAL header: " + path);
      Close();
      return false;
    }
    return true;
  }
  if (size < static_cast<long>(kHeaderSize)) {
    SetError(error, "torn WAL header (recover first): " + path);
    Close();
    return false;
  }
  char magic[kHeaderSize];
  if (std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fread(magic, 1, kHeaderSize, file_) != kHeaderSize ||
      std::memcmp(magic, kWalMagic, kHeaderSize) != 0) {
    SetError(error, "bad WAL magic/version: " + path);
    Close();
    return false;
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    SetError(error, "cannot seek WAL: " + path);
    Close();
    return false;
  }
  return true;
}

bool WalWriter::AppendPayload(const std::string& payload, std::string* error) {
  if (!ok()) {
    SetError(error, "WAL writer is closed or poisoned");
    return false;
  }
  // Poison before firing: if the injected fault throws, the writer must
  // already be unusable — state and log may have diverged.
  if (faults_ != nullptr && faults_->ShouldFail("service/wal/append")) {
    poisoned_ = true;
    throw FaultInjectedError("service/wal/append");
  }
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  PutU32(static_cast<std::uint32_t>(payload.size()), &frame);
  PutU32(Crc32(payload), &frame);
  frame += payload;
  if (faults_ != nullptr && faults_->ShouldFail("service/wal/torn")) {
    // Crash mid-write: persist only a prefix of the frame, then die. The
    // flush makes the torn bytes real so recovery genuinely sees them.
    poisoned_ = true;
    const std::size_t half = frame.size() / 2;
    std::fwrite(frame.data(), 1, half, file_);
    std::fflush(file_);
    throw FaultInjectedError("service/wal/torn");
  }
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    poisoned_ = true;
    SetError(error, "WAL append failed");
    return false;
  }
  return true;
}

bool WalWriter::AppendDelta(const Delta& delta, std::string* error) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kDelta));
  EncodeDelta(delta, &payload);
  return AppendPayload(payload, error);
}

bool WalWriter::AppendEpoch(const EpochCommit& commit, std::string* error) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kEpoch));
  PutU64(commit.epoch, &payload);
  payload.push_back(static_cast<char>(commit.mode));
  PutU32(commit.num_deltas, &payload);
  PutU64(commit.value_bits, &payload);
  PutU32(commit.state_crc, &payload);
  return AppendPayload(payload, error);
}

bool WalWriter::Sync(std::string* error) {
  if (!ok()) {
    SetError(error, "WAL writer is closed or poisoned");
    return false;
  }
  if (faults_ != nullptr && faults_->ShouldFail("service/wal/fsync")) {
    poisoned_ = true;
    throw FaultInjectedError("service/wal/fsync");
  }
  if (!syncer_->Sync(file_)) {
    poisoned_ = true;
    SetError(error, "WAL fsync failed");
    return false;
  }
  return true;
}

std::optional<WalReadResult> ReadWal(const std::string& path,
                                     std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    SetError(error, "cannot open WAL for reading: " + path);
    return std::nullopt;
  }
  WalReadResult result;
  char magic[kHeaderSize];
  const std::size_t got = std::fread(magic, 1, kHeaderSize, file);
  if (got == 0) {
    // Empty file: fresh WAL, nothing to replay.
    std::fclose(file);
    return result;
  }
  if (std::memcmp(magic, kWalMagic, got) != 0) {
    SetError(error, "bad WAL magic/version: " + path);
    std::fclose(file);
    return std::nullopt;
  }
  if (got < kHeaderSize) {
    // Crash during file creation: header itself is torn. valid_bytes = 0
    // tells recovery to truncate to empty; the writer recreates the
    // header.
    result.tail_dropped = true;
    std::fclose(file);
    return result;
  }
  result.valid_bytes = kHeaderSize;
  for (;;) {
    unsigned char frame_header[kFrameHeaderSize];
    const std::size_t fh = std::fread(frame_header, 1, kFrameHeaderSize, file);
    if (fh < kFrameHeaderSize) {
      result.tail_dropped = fh != 0;
      break;
    }
    const std::uint32_t len = GetU32(frame_header);
    const std::uint32_t want_crc = GetU32(frame_header + 4);
    if (len == 0 || len > kWalMaxRecordLen) {
      // Implausible length — a torn frame, not a reason to allocate.
      result.tail_dropped = true;
      break;
    }
    std::string payload(len, '\0');
    if (std::fread(payload.data(), 1, len, file) != len) {
      result.tail_dropped = true;
      break;
    }
    if (Crc32(payload) != want_crc) {
      result.tail_dropped = true;
      break;
    }
    // Checksum verified: from here on, failure means the file is not a
    // WAL we wrote (or a future schema) — structural error, not a torn
    // tail.
    const auto type = static_cast<WalRecordType>(
        static_cast<unsigned char>(payload[0]));
    WalRecord record;
    record.type = type;
    const std::string_view body(payload.data() + 1, payload.size() - 1);
    if (type == WalRecordType::kDelta) {
      std::string why;
      if (!DecodeDelta(body, &record.delta, &why)) {
        SetError(error, "checksummed WAL delta fails to decode: " + why);
        std::fclose(file);
        return std::nullopt;
      }
    } else if (type == WalRecordType::kEpoch) {
      if (body.size() != kEpochBodySize) {
        SetError(error, "bad WAL epoch record size");
        std::fclose(file);
        return std::nullopt;
      }
      const auto* p = reinterpret_cast<const unsigned char*>(body.data());
      record.epoch.epoch = GetU64(p);
      const unsigned char mode = p[8];
      if (mode > static_cast<unsigned char>(EpochMode::kDegraded)) {
        SetError(error, "bad WAL epoch mode byte");
        std::fclose(file);
        return std::nullopt;
      }
      record.epoch.mode = static_cast<EpochMode>(mode);
      record.epoch.num_deltas = GetU32(p + 9);
      record.epoch.value_bits = GetU64(p + 13);
      record.epoch.state_crc = GetU32(p + 21);
    } else {
      SetError(error, "unknown WAL record type");
      std::fclose(file);
      return std::nullopt;
    }
    result.records.push_back(std::move(record));
    result.valid_bytes += kFrameHeaderSize + len;
  }
  std::fclose(file);
  return result;
}

bool TruncateWal(const std::string& path, std::uint64_t valid_bytes,
                 std::string* error) {
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    SetError(error, "cannot truncate WAL: " + path);
    return false;
  }
  return true;
}

}  // namespace mbta
