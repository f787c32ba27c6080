#include "io/range_writable_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/async_io.h"
#include "exec/thread_pool.h"
#include "io/mem_env.h"
#include "io/posix_env.h"
#include "io/record_io.h"
#include "merge/merge_plan.h"
#include "tests/test_util.h"

namespace twrs {
namespace {

using testing::MakeTempDir;

std::string Contents(MemEnv* env, const std::string& path) {
  const std::vector<uint8_t>* data = env->FileContents(path);
  EXPECT_NE(data, nullptr);
  if (data == nullptr) return "";
  return std::string(data->begin(), data->end());
}

/// Creates (truncating) `path` holding `bytes`.
void CreateFile(Env* env, const std::string& path,
                const std::string& bytes = "") {
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TWRS_OK(env->NewRandomRWFile(path, &f));
  if (!bytes.empty()) ASSERT_TWRS_OK(f->WriteAt(0, bytes.data(), bytes.size()));
  ASSERT_TWRS_OK(f->Close());
}

/// Opens [offset, offset + length) of the existing `path`, wrapped in an
/// AsyncWritableFile with `buffer_bytes` halves when `pool` is non-null.
Status OpenRange(Env* env, const std::string& path, uint64_t offset,
                 uint64_t length, ThreadPool* pool, size_t buffer_bytes,
                 std::unique_ptr<WritableFile>* out) {
  std::unique_ptr<RandomRWFile> file;
  TWRS_RETURN_IF_ERROR(env->ReopenRandomRWFile(path, &file));
  *out = std::make_unique<RangeWritableFile>(std::move(file), offset, length);
  if (pool != nullptr) {
    *out = std::make_unique<AsyncWritableFile>(std::move(*out), pool,
                                               buffer_bytes);
  }
  return Status::OK();
}

TEST(RangeWritableFileTest, FillsExactlyItsRange) {
  MemEnv env;
  // Sentinel bytes around the range.
  CreateFile(&env, "out", "AAAABBBBCCCC");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(OpenRange(&env, "out", 4, 4, nullptr, 0, &file));
  ASSERT_TWRS_OK(file->Append("xy", 2));
  ASSERT_TWRS_OK(file->Append("zw", 2));
  ASSERT_TWRS_OK(file->Close());
  ASSERT_TWRS_OK(file->Close());  // idempotent
  EXPECT_EQ(Contents(&env, "out"), "AAAAxyzwCCCC");
}

TEST(RangeWritableFileTest, AppendAfterCloseFails) {
  MemEnv env;
  CreateFile(&env, "out");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(OpenRange(&env, "out", 0, 0, nullptr, 0, &file));
  ASSERT_TWRS_OK(file->Close());
  EXPECT_FALSE(file->Append("x", 1).ok());
}

TEST(RangeWritableFileTest, ExtendsTheFileOnWrite) {
  MemEnv env;
  CreateFile(&env, "out");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(OpenRange(&env, "out", 8, 4, nullptr, 0, &file));
  ASSERT_TWRS_OK(file->Append("TAIL", 4));
  ASSERT_TWRS_OK(file->Close());
  uint64_t size = 0;
  ASSERT_TWRS_OK(env.GetFileSize("out", &size));
  EXPECT_EQ(size, 12u);
  EXPECT_EQ(Contents(&env, "out").substr(8), "TAIL");
}

TEST(RangeWritableFileTest, WritePastTheRangeIsInvalidArgument) {
  MemEnv env;
  CreateFile(&env, "out");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(OpenRange(&env, "out", 0, 4, nullptr, 0, &file));
  ASSERT_TWRS_OK(file->Append("1234", 4));
  Status s = file->Append("5", 1);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // Sticky, and nothing landed past the range.
  EXPECT_TRUE(file->Close().IsInvalidArgument());
  EXPECT_EQ(Contents(&env, "out"), "1234");
}

TEST(RangeWritableFileTest, WritePastTheRangeSurfacesThroughAsyncWrap) {
  MemEnv env;
  ThreadPool pool(2);
  CreateFile(&env, "out");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(OpenRange(&env, "out", 0, 4, &pool, 64, &file));
  ASSERT_TWRS_OK(file->Append("12345", 5));  // buffered; fails at flush
  Status s = file->Close();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(RangeWritableFileTest, UnderfilledRangeIsCorruptionAtClose) {
  MemEnv env;
  CreateFile(&env, "out");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(OpenRange(&env, "out", 0, 8, nullptr, 0, &file));
  ASSERT_TWRS_OK(file->Append("1234", 4));
  Status s = file->Close();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(RangeWritableFileTest, ZeroLengthRangeClosesClean) {
  MemEnv env;
  CreateFile(&env, "out");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(OpenRange(&env, "out", 0, 0, nullptr, 0, &file));
  ASSERT_TWRS_OK(file->Close());
}

TEST(RangeWritableFileTest, MissingFileFailsToOpen) {
  MemEnv env;
  MergeOutputRange range;
  range.positioned = true;
  range.length = 4;
  std::unique_ptr<RecordWriter> writer;
  EXPECT_FALSE(MakeAsyncRecordWriter(&env, "missing", 64, nullptr,
                                     kDefaultAsyncBufferBytes, &writer,
                                     nullptr, range)
                   .ok());
  EXPECT_FALSE(env.FileExists("missing"));
}

TEST(RangeWritableFileTest, AbandonedWriterLetsNoErrorEscape) {
  MemEnv env;
  CreateFile(&env, "out");
  ThreadPool pool(1);
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TWRS_OK(OpenRange(&env, "out", 0, 1024, &pool, 64, &file));
    ASSERT_TWRS_OK(file->Append("partial", 7));
    // Destroyed mid-range: error-path unwinding, the unchecked shutdown.
  }
  {
    std::unique_ptr<RandomRWFile> f;
    ASSERT_TWRS_OK(env.ReopenRandomRWFile("out", &f));
    RangeWritableFile file(std::move(f), 0, 1024);
    ASSERT_TWRS_OK(file.Append("partial", 7));
  }
}

TEST(RangeWritableFileTest, AsyncBytesMatchSyncBytes) {
  MemEnv env;
  ThreadPool pool(2);
  std::string payload;
  for (int i = 0; i < 2000; ++i) payload += std::to_string(i * 7919) + "|";
  for (const char* path : {"sync", "async"}) CreateFile(&env, path);
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TWRS_OK(
        OpenRange(&env, "sync", 0, payload.size(), nullptr, 0, &file));
    ASSERT_TWRS_OK(file->Append(payload.data(), payload.size()));
    ASSERT_TWRS_OK(file->Close());
  }
  {
    std::unique_ptr<WritableFile> file;
    // 96-byte halves force hundreds of rotations over the payload.
    ASSERT_TWRS_OK(
        OpenRange(&env, "async", 0, payload.size(), &pool, 96, &file));
    size_t pos = 0;
    while (pos < payload.size()) {
      const size_t chunk = std::min<size_t>(37, payload.size() - pos);
      ASSERT_TWRS_OK(file->Append(payload.data() + pos, chunk));
      pos += chunk;
    }
    ASSERT_TWRS_OK(file->Close());
  }
  EXPECT_EQ(Contents(&env, "async"), Contents(&env, "sync"));
  EXPECT_EQ(Contents(&env, "async"), payload);
}

// The contract the concatenation-free sharded sort rests on: several range
// writers over distinct handles of one file, concurrently filling disjoint
// ranges, produce exactly the concatenation of their payloads.
TEST(RangeWritableFileTest, ConcurrentDisjointRangesCompose) {
  for (int use_posix = 0; use_posix <= 1; ++use_posix) {
    MemEnv mem;
    PosixEnv posix;
    Env* env = use_posix ? static_cast<Env*>(&posix) : &mem;
    const std::string path =
        use_posix ? MakeTempDir() + "/out" : std::string("out");

    constexpr int kWriters = 8;
    constexpr size_t kBytesPerWriter = 64 * 1024 + 13;
    CreateFile(env, path);
    ThreadPool flush_pool(4);
    std::vector<std::thread> writers;
    std::vector<Status> results(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        std::unique_ptr<WritableFile> file;
        Status s = OpenRange(env, path, w * kBytesPerWriter, kBytesPerWriter,
                             &flush_pool, 1024, &file);
        const std::vector<char> chunk(997, static_cast<char>('a' + w));
        size_t written = 0;
        while (s.ok() && written < kBytesPerWriter) {
          const size_t n = std::min(chunk.size(), kBytesPerWriter - written);
          s = file->Append(chunk.data(), n);
          written += n;
        }
        if (s.ok()) s = file->Close();
        results[w] = s;
      });
    }
    for (auto& t : writers) t.join();
    for (int w = 0; w < kWriters; ++w) {
      ASSERT_TWRS_OK(results[w]);
    }
    std::unique_ptr<SequentialFile> in;
    ASSERT_TWRS_OK(env->NewSequentialFile(path, &in));
    std::vector<char> got(kWriters * kBytesPerWriter);
    size_t read = 0;
    ASSERT_TWRS_OK(in->Read(got.data(), got.size(), &read));
    ASSERT_EQ(read, got.size());
    for (int w = 0; w < kWriters; ++w) {
      for (size_t i = 0; i < kBytesPerWriter; ++i) {
        ASSERT_EQ(got[w * kBytesPerWriter + i], static_cast<char>('a' + w))
            << "writer " << w << " byte " << i;
      }
    }
  }
}

TEST(RangeWritableFileTest, RecordWriterThroughTheFactory) {
  for (int pooled = 0; pooled <= 1; ++pooled) {
    MemEnv env;
    ThreadPool pool(2);
    CreateFile(&env, "out", std::string(8, '#'));
    MergeOutputRange range;
    range.positioned = true;
    range.offset = 8;
    range.length = 100 * kRecordBytes;
    std::unique_ptr<RecordWriter> writer;
    ASSERT_TWRS_OK(MakeAsyncRecordWriter(&env, "out", 64,
                                         pooled ? &pool : nullptr, 128,
                                         &writer, nullptr, range));
    for (Key k = 0; k < 100; ++k) ASSERT_TWRS_OK(writer->Append(k));
    ASSERT_TWRS_OK(writer->Finish());
    const std::string bytes = Contents(&env, "out");
    ASSERT_EQ(bytes.size(), 8 + 100 * kRecordBytes);
    EXPECT_EQ(bytes.substr(0, 8), std::string(8, '#'));
    for (Key k = 0; k < 100; ++k) {
      EXPECT_EQ(DecodeKey(reinterpret_cast<const uint8_t*>(bytes.data()) +
                          8 + k * kRecordBytes),
                k);
    }
  }
}

// ------------------------------------- a failing range under MergeRuns

/// RandomRWFile whose WriteAt fails after the first `ok_writes` calls.
class FailingRandomRWFile : public RandomRWFile {
 public:
  FailingRandomRWFile(std::unique_ptr<RandomRWFile> base, int ok_writes)
      : base_(std::move(base)), ok_writes_(ok_writes) {}

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    if (ok_writes_-- > 0) return base_->WriteAt(offset, data, n);
    return Status::IOError("injected positioned-write failure");
  }

  Status ReadAt(uint64_t offset, void* out, size_t n) override {
    return base_->ReadAt(offset, out, n);
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<RandomRWFile> base_;
  int ok_writes_;
};

/// MemEnv whose range-writer handles fail their second WriteAt.
class FailingRangeEnv : public MemEnv {
 public:
  Status ReopenRandomRWFile(const std::string& path,
                            std::unique_ptr<RandomRWFile>* out) override {
    std::unique_ptr<RandomRWFile> base;
    TWRS_RETURN_IF_ERROR(MemEnv::ReopenRandomRWFile(path, &base));
    *out = std::make_unique<FailingRandomRWFile>(std::move(base), 1);
    return Status::OK();
  }
};

RunInfo MakeForwardRun(Env* env, const std::string& path,
                       const std::vector<Key>& keys) {
  EXPECT_TRUE(WriteAllRecords(env, path, keys).ok());
  RunInfo run;
  RunSegment seg;
  seg.path = path;
  seg.count = keys.size();
  run.length = keys.size();
  run.min_key = keys.front();
  run.max_key = keys.back();
  run.segments.push_back(std::move(seg));
  return run;
}

TEST(RangeWritableFileTest, FailingRangeWriteFailsThePartitionedMerge) {
  FailingRangeEnv env;
  ThreadPool pool(2);
  std::vector<RunInfo> runs;
  for (int r = 0; r < 4; ++r) {
    // Interleaved keys: every partition draws from every run, and each
    // partition's range (~640 KiB) takes several writes of the merge's
    // 256 KiB async halves, so the failure lands partway through it.
    std::vector<Key> keys(40000);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<Key>(4 * i) + r;
    }
    runs.push_back(MakeForwardRun(&env, "run" + std::to_string(r), keys));
  }
  MergeOptions options;
  options.pool = &pool;
  options.final_merge_threads = 2;
  options.block_bytes = 4096;
  options.remove_inputs = false;
  MergeStats stats;
  Status s = MergeRuns(&env, runs, options, "out", &stats);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("injected"), std::string::npos)
      << s.ToString();
  EXPECT_FALSE(env.FileExists("out"));
}

}  // namespace
}  // namespace twrs
