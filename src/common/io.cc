#include "common/io.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <system_error>
#include <unistd.h>

namespace qb5000 {

uint32_t Crc32(std::string_view data, uint32_t crc) {
  // Slicing-by-8 over the reflected IEEE polynomial 0xEDB88320: kTables[0]
  // is the classic bytewise table, and kTables[k][b] is the CRC of byte b
  // followed by k zero bytes, so one step folds in 8 input bytes at once.
  static const auto kTables = [] {
    std::array<std::array<uint32_t, 256>, 8> tables{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tables[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        uint32_t prev = tables[k - 1][i];
        tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return tables;
  }();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = crc ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                         uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
          kTables[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

namespace {

Status ErrnoStatus(const std::string& op, const std::string& path) {
  // Not strerror(): its static buffer is a data race when two I/O paths fail
  // concurrently (clang-tidy concurrency-mt-unsafe). error_code::message()
  // renders the same text into a private string.
  std::error_code ec(errno, std::generic_category());
  return Status::IOError(op + " " + path + ": " + ec.message());
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);  // best-effort; error dropped
  }

  Status Append(std::string_view data) override {
    if (file_ == nullptr) return Status::IOError("append to closed " + path_);
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return ErrnoStatus("write", path_);
    }
    return Status::Ok();
  }

  Status Flush() override {
    if (file_ == nullptr) return Status::IOError("flush of closed " + path_);
    if (std::fflush(file_) != 0) return ErrnoStatus("flush", path_);
    return Status::Ok();
  }

  Status Sync() override {
    if (file_ == nullptr) return Status::IOError("sync of closed " + path_);
    if (std::fflush(file_) != 0) return ErrnoStatus("flush", path_);
    if (::fsync(::fileno(file_)) != 0) return ErrnoStatus("fsync", path_);
    return Status::Ok();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::Ok();
    std::FILE* file = file_;
    file_ = nullptr;
    if (std::fclose(file) != 0) return ErrnoStatus("close", path_);
    return Status::Ok();
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class PosixReadableFile : public ReadableFile {
 public:
  explicit PosixReadableFile(std::string path) : path_(std::move(path)) {}

  Result<std::string> ReadAll() override {
    std::FILE* file = std::fopen(path_.c_str(), "rb");
    if (file == nullptr) {
      return errno == ENOENT ? Status::NotFound("cannot open " + path_)
                             : ErrnoStatus("open", path_);
    }
    std::string data;
    char buffer[1 << 16];
    size_t got;
    while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      data.append(buffer, got);
    }
    bool failed = std::ferror(file) != 0;
    std::fclose(file);
    if (failed) return ErrnoStatus("read", path_);
    return data;
  }

 private:
  std::string path_;
};

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Result<std::string> Read(uint64_t offset, size_t n) const override {
    std::string data(n, '\0');
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::pread(fd_, data.data() + got, n - got,
                          static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pread", path_);
      }
      if (r == 0) break;  // EOF: short read, caller checks length
      got += static_cast<size_t>(r);
    }
    data.resize(got);
    return data;
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) return ErrnoStatus("open", path);
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(file, path));
  }

  Result<std::unique_ptr<ReadableFile>> NewReadableFile(
      const std::string& path) override {
    // Open lazily in ReadAll(); existence is still checked here so callers
    // get NotFound at open time like they would with a real handle.
    if (!FileExists(path)) return Status::NotFound("cannot open " + path);
    return std::unique_ptr<ReadableFile>(
        std::make_unique<PosixReadableFile>(path));
  }

  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(cppcoreguidelines-pro-type-vararg)
    if (fd < 0) {
      return errno == ENOENT ? Status::NotFound("cannot open " + path)
                             : ErrnoStatus("open", path);
    }
    return std::unique_ptr<RandomAccessFile>(
        std::make_unique<PosixRandomAccessFile>(fd, path));
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename", from + " -> " + to);
    }
    return Status::Ok();
  }

  Status DeleteFile(const std::string& path) override {
    if (std::remove(path.c_str()) != 0) return ErrnoStatus("delete", path);
    return Status::Ok();
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }
};

Env* Resolve(Env* env) { return env != nullptr ? env : Env::Default(); }

}  // namespace

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

namespace {

/// The correctness fallback behind Env::NewRandomAccessFile: every Read
/// pulls the whole file through the env's own NewReadableFile and slices
/// out the requested range. Slow, but it means Env subclasses that only
/// implement the sequential interfaces keep working.
class WholeFileRandomAccessFile : public RandomAccessFile {
 public:
  WholeFileRandomAccessFile(Env* env, std::string path)
      : env_(env), path_(std::move(path)) {}

  Result<std::string> Read(uint64_t offset, size_t n) const override {
    auto file = env_->NewReadableFile(path_);
    if (!file.ok()) return file.status();
    auto data = (*file)->ReadAll();
    if (!data.ok()) return data.status();
    if (offset >= data->size()) return std::string();
    return data->substr(offset, n);
  }

 private:
  Env* env_;
  std::string path_;
};

}  // namespace

Result<std::unique_ptr<RandomAccessFile>> Env::NewRandomAccessFile(
    const std::string& path) {
  if (!FileExists(path)) return Status::NotFound("cannot open " + path);
  return std::unique_ptr<RandomAccessFile>(
      std::make_unique<WholeFileRandomAccessFile>(this, path));
}

Result<std::string> ReadFileToString(Env* env, const std::string& path) {
  auto file = Resolve(env)->NewReadableFile(path);
  if (!file.ok()) return file.status();
  return (*file)->ReadAll();
}

Status WriteStringToFile(Env* env, std::string_view data,
                         const std::string& path) {
  auto file = Resolve(env)->NewWritableFile(path);
  if (!file.ok()) return file.status();
  Status st = (*file)->Append(data);
  if (st.ok()) st = (*file)->Flush();
  Status close = (*file)->Close();
  return st.ok() ? close : st;
}

// --- AtomicFileWriter -------------------------------------------------------

AtomicFileWriter::AtomicFileWriter(Env* env, std::string path)
    : env_(Resolve(env)), path_(std::move(path)), tmp_path_(TempPath(path_)) {
  auto file = env_->NewWritableFile(tmp_path_);
  if (file.ok()) {
    file_ = std::move(*file);
  } else {
    first_error_ = file.status();
  }
}

AtomicFileWriter::~AtomicFileWriter() {
  if (committed_) return;
  file_.reset();  // close before unlink so Windows-style envs could work too
  if (env_->FileExists(tmp_path_)) {
    (void)env_->DeleteFile(tmp_path_).ok();  // best-effort cleanup
  }
}

Status AtomicFileWriter::Append(std::string_view data) {
  if (!first_error_.ok()) return first_error_;
  Status st = file_->Append(data);
  if (!st.ok()) first_error_ = st;
  return st;
}

Status AtomicFileWriter::Commit() {
  if (committed_) return Status::Internal("Commit() called twice");
  if (first_error_.ok()) {
    // Flush + fsync + close the temp file: the new bytes must be durable
    // *before* any rename makes them reachable, or a crash could leave the
    // target pointing at data the disk never received.
    Status st = file_->Sync();
    if (st.ok()) st = file_->Close();
    if (!st.ok()) first_error_ = st;
  }
  if (first_error_.ok() && env_->FileExists(path_)) {
    // Rotate the previous complete file out of the way instead of
    // overwriting it: until the final rename lands, a reader can still
    // recover it from `.bak`.
    Status st = env_->RenameFile(path_, BackupPath(path_));
    if (!st.ok()) first_error_ = st;
  }
  if (first_error_.ok()) {
    Status st = env_->RenameFile(tmp_path_, path_);
    if (!st.ok()) first_error_ = st;
  }
  if (!first_error_.ok()) {
    file_.reset();
    if (env_->FileExists(tmp_path_)) (void)env_->DeleteFile(tmp_path_).ok();
  }
  committed_ = first_error_.ok();
  return first_error_;
}

// --- FaultInjectingEnv ------------------------------------------------------

/// Counts its operations through the owning env; applies the armed fault.
/// Deliberately outside the anonymous namespace: it is the friend the env
/// grants NextOp() access to.
class FaultInjectingWritableFile : public WritableFile {
 public:
  FaultInjectingWritableFile(FaultInjectingEnv* env,
                             std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Append(std::string_view data) override;
  Status Flush() override;
  Status Sync() override;
  Status Close() override;

 private:
  FaultInjectingEnv* env_;
  std::unique_ptr<WritableFile> base_;
};

FaultInjectingEnv::FaultInjectingEnv(Env* base) : base_(Resolve(base)) {}

void FaultInjectingEnv::InjectFault(FaultKind kind, int64_t op_index) {
  kind_ = kind;
  fault_index_ = op_index;
}

void FaultInjectingEnv::Reset() {
  kind_ = FaultKind::kNone;
  fault_index_ = -1;
  ops_issued_ = 0;
  crashed_ = false;
}

FaultInjectingEnv::OpFate FaultInjectingEnv::NextOp() {
  int64_t index = ops_issued_++;
  if (crashed_) return OpFate::kFail;
  if (index != fault_index_) return OpFate::kProceed;
  switch (kind_) {
    case FaultKind::kCrash:
      crashed_ = true;
      return OpFate::kFail;
    case FaultKind::kTornWrite:
      crashed_ = true;
      return OpFate::kTear;
    case FaultKind::kBitFlip:
      return OpFate::kFlip;
    case FaultKind::kNone:
      break;
  }
  return OpFate::kProceed;
}

Status FaultInjectingWritableFile::Append(std::string_view data) {
  switch (env_->NextOp()) {
    case FaultInjectingEnv::OpFate::kFail:
      return Status::IOError("injected crash");
    case FaultInjectingEnv::OpFate::kTear: {
      // Half the payload reaches the file, then the "process dies".
      (void)base_->Append(data.substr(0, data.size() / 2)).ok();
      (void)base_->Flush().ok();
      return Status::IOError("injected torn write");
    }
    case FaultInjectingEnv::OpFate::kFlip: {
      std::string flipped(data);
      if (!flipped.empty()) flipped[flipped.size() / 2] ^= 0x10;
      return base_->Append(flipped);  // silent corruption: reports success
    }
    case FaultInjectingEnv::OpFate::kProceed:
      break;
  }
  return base_->Append(data);
}

Status FaultInjectingWritableFile::Flush() {
  if (env_->NextOp() != FaultInjectingEnv::OpFate::kProceed) {
    return Status::IOError("injected crash");
  }
  return base_->Flush();
}

Status FaultInjectingWritableFile::Sync() {
  if (env_->NextOp() != FaultInjectingEnv::OpFate::kProceed) {
    return Status::IOError("injected crash");
  }
  return base_->Sync();
}

Status FaultInjectingWritableFile::Close() {
  if (env_->NextOp() != FaultInjectingEnv::OpFate::kProceed) {
    return Status::IOError("injected crash");
  }
  return base_->Close();
}

Result<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewWritableFile(
    const std::string& path) {
  if (NextOp() != OpFate::kProceed) return Status::IOError("injected crash");
  auto base = base_->NewWritableFile(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultInjectingWritableFile>(this, std::move(*base)));
}

Result<std::unique_ptr<ReadableFile>> FaultInjectingEnv::NewReadableFile(
    const std::string& path) {
  return base_->NewReadableFile(path);  // reads are never faulted
}

Result<std::unique_ptr<RandomAccessFile>> FaultInjectingEnv::NewRandomAccessFile(
    const std::string& path) {
  return base_->NewRandomAccessFile(path);  // reads are never faulted
}

Status FaultInjectingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  if (NextOp() != OpFate::kProceed) return Status::IOError("injected crash");
  return base_->RenameFile(from, to);
}

Status FaultInjectingEnv::DeleteFile(const std::string& path) {
  if (NextOp() != OpFate::kProceed) return Status::IOError("injected crash");
  return base_->DeleteFile(path);
}

bool FaultInjectingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

}  // namespace qb5000
