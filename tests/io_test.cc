// The durability substrate: CRC32, the Env seam, AtomicFileWriter's
// old-or-new guarantee, and the determinism of FaultInjectingEnv that the
// checkpoint crash sweeps (checkpoint_test.cc) rely on.
#include "common/io.h"

#include <sys/stat.h>

#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace qb5000 {
namespace {

std::string TestDir() {
  std::string dir = ::testing::TempDir() + "qb5000_io_test";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void RemoveIfExists(Env* env, const std::string& path) {
  if (env->FileExists(path)) {
    ASSERT_TRUE(env->DeleteFile(path).ok());
  }
}

TEST(Crc32Test, KnownVectors) {
  // The check value every CRC-32 implementation must agree on.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32(std::string(1, '\0')), 0xD202EF8Du);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "qb5000-checkpoint payload bytes \n\x01\xff";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t partial = Crc32(data.substr(0, split));
    EXPECT_EQ(Crc32(data.substr(split), partial), Crc32(data)) << split;
  }
}

// Crc32 folds in eight bytes per step; a bytewise loop over the classic
// table is the reference it must match at every length and alignment.
TEST(Crc32Test, SlicedMatchesBytewiseReference) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  auto bytewise = [&table](std::string_view data) {
    uint32_t crc = ~0u;
    for (unsigned char byte : data) {
      crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
    }
    return ~crc;
  };
  std::string data;
  for (int i = 0; i < 80; ++i) data.push_back(static_cast<char>(i * 37 + 11));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; offset + length <= data.size(); ++length) {
      std::string_view piece(data.data() + offset, length);
      EXPECT_EQ(Crc32(piece), bytewise(piece))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string data = "templates 17 history 42.5";
  uint32_t clean = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[i] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32(flipped), clean) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(EnvTest, WriteReadRoundTripIsBinarySafe) {
  const std::string path = TestDir() + "/roundtrip.bin";
  std::string data = "line1\nline2\r\n";
  data.push_back('\0');
  data += "\xff\x80 tail";
  ASSERT_TRUE(WriteStringToFile(nullptr, data, path).ok());
  auto read = ReadFileToString(nullptr, path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
}

TEST(EnvTest, MissingFileIsNotFound) {
  auto read = ReadFileToString(nullptr, TestDir() + "/never_written");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(EnvTest, UnwritablePathSurfacesIOError) {
  Status st =
      WriteStringToFile(nullptr, "x", "/nonexistent_qb5000_dir/sub/file");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST(AtomicFileWriterTest, CommitPublishesAndRotatesBackup) {
  Env* env = Env::Default();
  const std::string path = TestDir() + "/atomic.dat";
  RemoveIfExists(env, path);
  RemoveIfExists(env, AtomicFileWriter::BackupPath(path));

  {
    AtomicFileWriter writer(env, path);
    ASSERT_TRUE(writer.Append("version-1").ok());
    ASSERT_TRUE(writer.Commit().ok());
  }
  EXPECT_EQ(*ReadFileToString(env, path), "version-1");
  EXPECT_FALSE(env->FileExists(AtomicFileWriter::BackupPath(path)));
  EXPECT_FALSE(env->FileExists(AtomicFileWriter::TempPath(path)));

  {
    AtomicFileWriter writer(env, path);
    ASSERT_TRUE(writer.Append("version-2").ok());
    ASSERT_TRUE(writer.Commit().ok());
  }
  EXPECT_EQ(*ReadFileToString(env, path), "version-2");
  // The previous version was rotated, not clobbered.
  EXPECT_EQ(*ReadFileToString(env, AtomicFileWriter::BackupPath(path)),
            "version-1");
  EXPECT_FALSE(env->FileExists(AtomicFileWriter::TempPath(path)));
}

TEST(AtomicFileWriterTest, AbandonedWriterLeavesTargetUntouched) {
  Env* env = Env::Default();
  const std::string path = TestDir() + "/abandoned.dat";
  ASSERT_TRUE(WriteStringToFile(env, "original", path).ok());
  {
    AtomicFileWriter writer(env, path);
    ASSERT_TRUE(writer.Append("half-written update that never commits").ok());
    // destroyed without Commit()
  }
  EXPECT_EQ(*ReadFileToString(env, path), "original");
  EXPECT_FALSE(env->FileExists(AtomicFileWriter::TempPath(path)));
}

TEST(AtomicFileWriterTest, FailedCommitKeepsPreviousFileLoadable) {
  const std::string path = TestDir() + "/failed_commit.dat";
  Env* base = Env::Default();
  RemoveIfExists(base, path);
  RemoveIfExists(base, AtomicFileWriter::BackupPath(path));
  ASSERT_TRUE(WriteStringToFile(base, "stable-state", path).ok());

  FaultInjectingEnv env(base);
  // Crash every op index in turn; the committed file must never change.
  for (int64_t op = 0;; ++op) {
    env.Reset();
    env.InjectFault(FaultInjectingEnv::FaultKind::kCrash, op);
    AtomicFileWriter writer(&env, path);
    Status append = writer.Append("replacement-state");
    Status commit = append.ok() ? writer.Commit() : append;
    if (commit.ok()) break;  // op index beyond the sequence: clean run
    // Old-or-new: either the stable file survived at path, or the rotation
    // crashed between renames and it survived at .bak.
    Env* check = base;
    std::string at_path = check->FileExists(path)
                              ? *ReadFileToString(check, path)
                              : *ReadFileToString(
                                    check, AtomicFileWriter::BackupPath(path));
    EXPECT_EQ(at_path, "stable-state") << "crash at op " << op;
    // Restore the fixture for the next iteration.
    env.Reset();
    RemoveIfExists(base, path);
    RemoveIfExists(base, AtomicFileWriter::BackupPath(path));
    ASSERT_TRUE(WriteStringToFile(base, "stable-state", path).ok());
    ASSERT_LT(op, 64) << "crash sweep did not terminate";
  }
  EXPECT_EQ(*ReadFileToString(base, path), "replacement-state");
}

TEST(FaultInjectingEnvTest, OpCountingIsDeterministic) {
  const std::string path = TestDir() + "/ops.dat";
  RemoveIfExists(Env::Default(), path);
  RemoveIfExists(Env::Default(), AtomicFileWriter::BackupPath(path));
  auto run = [&](FaultInjectingEnv& env) {
    AtomicFileWriter writer(&env, path);
    (void)writer.Append("aa").ok();
    (void)writer.Append("bb").ok();
    return writer.Commit();
  };
  FaultInjectingEnv env(nullptr);
  ASSERT_TRUE(run(env).ok());
  int64_t clean_ops = env.ops_issued();
  ASSERT_GT(clean_ops, 4);  // open + 2 appends + sync + close + rename(s)

  env.Reset();
  ASSERT_TRUE(run(env).ok());
  EXPECT_EQ(env.ops_issued(), clean_ops + 1)  // +1: rotation rename now fires
      << "same op sequence must count identically";

  // A crash at op k fails the write and every subsequent mutating op.
  env.Reset();
  env.InjectFault(FaultInjectingEnv::FaultKind::kCrash, 2);
  Status st = run(env);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(env.crashed());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST(FaultInjectingEnvTest, TornWriteLeavesPrefixOnly) {
  Env* base = Env::Default();
  const std::string path = TestDir() + "/torn.dat";
  FaultInjectingEnv env(base);
  // Op 0 is the open; op 1 the append, which tears halfway.
  env.InjectFault(FaultInjectingEnv::FaultKind::kTornWrite, 1);
  auto file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  const std::string payload = "0123456789abcdef";
  Status st = (*file)->Append(payload);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(env.crashed());
  file->reset();  // close underlying handle
  auto contents = ReadFileToString(base, path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, payload.substr(0, payload.size() / 2));
}

TEST(FaultInjectingEnvTest, BitFlipCorruptsSilently) {
  Env* base = Env::Default();
  const std::string path = TestDir() + "/flip.dat";
  FaultInjectingEnv env(base);
  env.InjectFault(FaultInjectingEnv::FaultKind::kBitFlip, 1);
  auto file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  const std::string payload = "0123456789abcdef";
  ASSERT_TRUE((*file)->Append(payload).ok());  // reports success!
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_FALSE(env.crashed());
  auto contents = ReadFileToString(base, path);
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(*contents, payload);
  ASSERT_EQ(contents->size(), payload.size());
  int diffs = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    if ((*contents)[i] != payload[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1);
  EXPECT_NE(Crc32(*contents), Crc32(payload)) << "CRC must catch the flip";
}

}  // namespace
}  // namespace qb5000
