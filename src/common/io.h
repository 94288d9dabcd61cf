#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace qb5000 {

/// CRC32 (IEEE polynomial, the zlib/`crc32` variant) over `data`, continuing
/// from `crc` so large payloads can be checksummed incrementally. Call with
/// the default seed for a fresh checksum.
uint32_t Crc32(std::string_view data, uint32_t crc = 0);

/// A sequential-write file handle. All durability-critical writes in this
/// codebase go through this interface (enforced by tools/qb_lint.py) so that
/// error handling, fsync, and fault injection have a single seam.
///
/// Every method reports failure through Status — including Close(), which is
/// where deferred write errors (disk full on flush) surface on many
/// filesystems. Destroying an unclosed file closes it best-effort and drops
/// the error; call Close() explicitly on paths that must be durable.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  /// Pushes user-space buffers to the OS.
  virtual Status Flush() = 0;
  /// Forces OS buffers to stable storage (fsync).
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// A whole-file reader. Checkpoints are read in one shot and validated in
/// memory, so a streaming interface buys nothing.
class ReadableFile {
 public:
  virtual ~ReadableFile() = default;
  virtual Result<std::string> ReadAll() = 0;
};

/// A positional reader for files that may keep growing while being read.
/// Read() is const and thread-safe (pread under the POSIX env). No library
/// code calls it; it stays because Env subclasses outside the library
/// (servicebench's load generator) override NewRandomAccessFile.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  /// Reads up to `n` bytes starting at `offset`. Fewer bytes than requested
  /// (including zero at EOF) is not an error; callers check the length.
  virtual Result<std::string> Read(uint64_t offset, size_t n) const = 0;
};

/// The filesystem seam. Production code uses Env::Default() (POSIX, binary
/// mode, real fsync); tests wrap it in a FaultInjectingEnv to make crashes,
/// torn writes, and bit rot deterministic and reproducible.
class Env {
 public:
  virtual ~Env() = default;
  /// Opens `path` for writing, truncating any existing file.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;
  virtual Result<std::unique_ptr<ReadableFile>> NewReadableFile(
      const std::string& path) = 0;
  /// Opens `path` for positional reads. The base implementation is a
  /// correct-but-slow fallback (each Read re-reads the whole file through
  /// NewReadableFile), so custom test envs keep working unchanged; the
  /// POSIX env overrides it with pread(2).
  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path);
  /// Atomically renames `from` onto `to` (POSIX rename(2) semantics:
  /// `to` is replaced as a single atomic step; no window where it is torn).
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;

  /// The process-wide POSIX environment.
  static Env* Default();
};

/// Reads all of `path` into a string. `env == nullptr` means Env::Default().
Result<std::string> ReadFileToString(Env* env, const std::string& path);

/// Writes `data` to `path` non-atomically (open, append, flush, close).
/// For durable state use AtomicFileWriter instead; this is for artifacts
/// where a torn file is acceptable (traces, reports).
Status WriteStringToFile(Env* env, std::string_view data,
                         const std::string& path);

/// Crash-safe file replacement: writes to `<path>.tmp`, then on Commit()
/// flushes, fsyncs, rotates any existing `<path>` to `<path>.bak`, and
/// renames the temp file into place. The previous checkpoint is never
/// written to in place, so after a crash at *any* intermediate step the
/// reader finds either the old complete file (at `path` or `path.bak`) or
/// the new complete file — never a half-written one.
///
/// Errors are sticky: the first failing operation poisons the writer and
/// Commit() reports it. Destruction without Commit() deletes the temp file
/// best-effort and leaves `path` untouched.
class AtomicFileWriter {
 public:
  /// `env == nullptr` means Env::Default().
  AtomicFileWriter(Env* env, std::string path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  Status Append(std::string_view data);

  /// Flush + fsync + close the temp file, rotate the previous file to
  /// `.bak`, and rename the temp file onto `path`. Returns the first error
  /// encountered anywhere in the write sequence.
  Status Commit();

  const std::string& path() const { return path_; }

  static std::string TempPath(const std::string& path) { return path + ".tmp"; }
  static std::string BackupPath(const std::string& path) {
    return path + ".bak";
  }

 private:
  Env* env_;
  std::string path_;
  std::string tmp_path_;
  std::unique_ptr<WritableFile> file_;
  Status first_error_;
  bool committed_ = false;
};

/// Deterministic filesystem fault injection for tests. Wraps a base Env and
/// counts every *mutating* operation (open-for-write, append, flush, sync,
/// close, rename, delete) in program order; reads are never counted and
/// never fail. A single fault is armed at an absolute op index:
///
///   kCrash     the N-th op does not happen and fails, and every later
///              mutating op fails too — the process "died" at that point.
///   kTornWrite like kCrash, but if the N-th op is an Append only a prefix
///              of the data reaches the file before the crash.
///   kBitFlip   the N-th op, if an Append, has one bit of its payload
///              flipped and then *succeeds silently* — latent media
///              corruption that only a checksum can catch.
///
/// Replaying the same op sequence with the same armed fault reproduces the
/// same failure byte-for-byte, which is what makes crash-at-every-op
/// sweeps possible (tests/checkpoint_test.cc).
class FaultInjectingEnv : public Env {
 public:
  enum class FaultKind { kNone, kCrash, kTornWrite, kBitFlip };

  /// `base == nullptr` means Env::Default().
  explicit FaultInjectingEnv(Env* base);

  /// Arms `kind` to fire on the op with absolute index `op_index`
  /// (0-based, counted from the last Reset()).
  void InjectFault(FaultKind kind, int64_t op_index);

  /// Disarms the fault, clears the crashed flag, and zeroes the op counter.
  void Reset();

  /// Mutating ops issued since the last Reset() (including failed ones).
  int64_t ops_issued() const { return ops_issued_; }
  /// True once a kCrash/kTornWrite fault has fired.
  bool crashed() const { return crashed_; }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::unique_ptr<ReadableFile>> NewReadableFile(
      const std::string& path) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status DeleteFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;

 private:
  friend class FaultInjectingWritableFile;

  /// Advances the op counter and decides this op's fate.
  enum class OpFate { kProceed, kFail, kTear, kFlip };
  OpFate NextOp();

  Env* base_;
  FaultKind kind_ = FaultKind::kNone;
  int64_t fault_index_ = -1;
  int64_t ops_issued_ = 0;
  bool crashed_ = false;
};

}  // namespace qb5000
