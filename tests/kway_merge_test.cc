#include "merge/kway_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/run_sink.h"
#include "io/mem_env.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace twrs {
namespace {

// Writes `keys` (ascending) as a plain forward run file.
RunInfo MakeForwardRun(Env* env, const std::string& path,
                       const std::vector<Key>& keys) {
  EXPECT_TRUE(WriteAllRecords(env, path, keys).ok());
  RunInfo run;
  RunSegment seg;
  seg.path = path;
  seg.count = keys.size();
  run.length = keys.size();
  if (!keys.empty()) {
    run.min_key = keys.front();
    run.max_key = keys.back();
  }
  run.segments.push_back(std::move(seg));
  return run;
}

// Writes a multi-segment 2WRS-style run through FileRunSink.
RunInfo MakeFourStreamRun(Env* env, const std::string& prefix) {
  FileRunSinkOptions options;
  options.reverse.pages_per_file = 2;
  options.reverse.page_bytes = 64;
  FileRunSink sink(env, "d", prefix, options);
  EXPECT_TRUE(sink.BeginRun().ok());
  for (Key k : {15, 10, 5}) EXPECT_TRUE(sink.Append(kStream4, k).ok());
  for (Key k : {20, 25}) EXPECT_TRUE(sink.Append(kStream3, k).ok());
  for (Key k : {40, 35}) EXPECT_TRUE(sink.Append(kStream2, k).ok());
  for (Key k : {50, 60}) EXPECT_TRUE(sink.Append(kStream1, k).ok());
  EXPECT_TRUE(sink.EndRun().ok());
  EXPECT_TRUE(sink.Finish().ok());
  return sink.runs()[0];
}

// Merges `window` of `runs` (sliced when `slices` is non-null) into a
// record file through Merge and reads it back.
std::vector<Key> MergeAll(Env* env, const std::vector<RunInfo>& runs,
                          const std::vector<RunSlice>* slices = nullptr,
                          const MergeWindow& window = MergeWindow()) {
  MergeIoOptions io;
  io.block_bytes = 256;
  std::vector<std::unique_ptr<RunCursor>> cursors;
  EXPECT_TWRS_OK(OpenRunCursors(env, runs, io, slices, &cursors));
  RecordWriter writer(env, "merged", io.block_bytes);
  EXPECT_TWRS_OK(Merge(&cursors, io, window, &writer, nullptr));
  std::vector<Key> out;
  EXPECT_TWRS_OK(ReadAllRecords(env, "merged", &out));
  return out;
}

TEST(RunCursorTest, IteratesMultiSegmentRun) {
  MemEnv env;
  RunInfo run = MakeFourStreamRun(&env, "r");
  RunCursor cursor(&env, run);
  ASSERT_TWRS_OK(cursor.Init());
  std::vector<Key> keys;
  while (cursor.valid()) {
    keys.push_back(cursor.key());
    ASSERT_TWRS_OK(cursor.Next());
  }
  EXPECT_EQ(keys, std::vector<Key>({5, 10, 15, 20, 25, 35, 40, 50, 60}));
}

TEST(RunCursorTest, EmptyRunIsImmediatelyInvalid) {
  MemEnv env;
  RunInfo run;
  RunCursor cursor(&env, run);
  ASSERT_TWRS_OK(cursor.Init());
  EXPECT_FALSE(cursor.valid());
}

TEST(MergeTest, MergesPlainRuns) {
  MemEnv env;
  std::vector<RunInfo> runs;
  runs.push_back(MakeForwardRun(&env, "a", {2, 8, 12, 16}));
  runs.push_back(MakeForwardRun(&env, "b", {3, 13, 14, 17}));
  runs.push_back(MakeForwardRun(&env, "c", {1, 7, 9, 18}));
  EXPECT_EQ(MergeAll(&env, runs),
            std::vector<Key>({1, 2, 3, 7, 8, 9, 12, 13, 14, 16, 17, 18}));
}

TEST(MergeTest, MergesMixedSegmentKinds) {
  MemEnv env;
  std::vector<RunInfo> runs;
  runs.push_back(MakeFourStreamRun(&env, "r"));  // 5..60
  runs.push_back(MakeForwardRun(&env, "f", {1, 22, 70}));
  std::vector<Key> merged = MergeAll(&env, runs);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
  EXPECT_EQ(merged.size(), 12u);
  EXPECT_EQ(merged.front(), 1);
  EXPECT_EQ(merged.back(), 70);
}

TEST(MergeTest, ZeroRunsYieldEmptyOutput) {
  MemEnv env;
  EXPECT_TRUE(MergeAll(&env, {}).empty());
}

TEST(MergeTest, ProducesRunInfo) {
  MemEnv env;
  std::vector<RunInfo> runs;
  runs.push_back(MakeForwardRun(&env, "a", {1, 3}));
  runs.push_back(MakeForwardRun(&env, "b", {2}));
  MergeIoOptions io;
  std::vector<std::unique_ptr<RunCursor>> cursors;
  ASSERT_TWRS_OK(OpenRunCursors(&env, runs, io, nullptr, &cursors));
  RecordWriter writer(&env, "merged", 256);
  RunInfo out;
  ASSERT_TWRS_OK(Merge(&cursors, io, MergeWindow(), &writer, &out));
  EXPECT_EQ(out.length, 3u);
  ASSERT_EQ(out.segments.size(), 1u);
  EXPECT_EQ(out.segments[0].count, 3u);
  EXPECT_EQ(out.min_key, 1);
  EXPECT_EQ(out.max_key, 3);
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "merged", &keys));
  EXPECT_EQ(keys, std::vector<Key>({1, 2, 3}));
}

TEST(MergeTest, ClampToLimitServesTheFirstOrLastK) {
  MemEnv env;
  std::vector<RunInfo> runs;
  runs.push_back(MakeForwardRun(&env, "a", {1, 4, 7, 10}));
  runs.push_back(MakeForwardRun(&env, "b", {2, 5, 8}));
  runs.push_back(MakeForwardRun(&env, "c", {3, 6, 9, 11, 12}));
  for (bool take_last : {false, true}) {
    std::vector<RunSlice> slices;
    for (const RunInfo& run : runs) slices.push_back(RunSlice{0, run.length});
    const MergeWindow window = ClampToLimit(2, take_last, &slices);
    for (size_t r = 0; r < runs.size(); ++r) {
      EXPECT_EQ(slices[r].length, 2u);
      EXPECT_EQ(slices[r].skip, take_last ? runs[r].length - 2 : 0u);
    }
    EXPECT_EQ(MergeAll(&env, runs, &slices, window),
              take_last ? std::vector<Key>({11, 12})
                        : std::vector<Key>({1, 2}));
  }
}

TEST(MergeTest, EmptySlicesOpenNoCursor) {
  MemEnv env;
  std::vector<RunInfo> runs;
  runs.push_back(MakeForwardRun(&env, "a", {1, 2}));
  runs.push_back(MakeForwardRun(&env, "b", {3}));
  ASSERT_TWRS_OK(env.RemoveFile("b"));  // never opened: its slice is empty
  const std::vector<RunSlice> slices = {RunSlice{1, 1}, RunSlice{0, 0}};
  std::vector<std::unique_ptr<RunCursor>> cursors;
  ASSERT_TWRS_OK(OpenRunCursors(&env, runs, MergeIoOptions(), &slices,
                                &cursors));
  EXPECT_EQ(cursors.size(), 1u);
  EXPECT_EQ(MergeAll(&env, runs, &slices), std::vector<Key>({2}));
}

TEST(MergeTest, RemoveRunFilesDeletesAllSegments) {
  MemEnv env;
  RunInfo run = MakeFourStreamRun(&env, "r");
  ASSERT_GT(env.FileCount(), 0u);
  ASSERT_TWRS_OK(RemoveRunFiles(&env, run));
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(MergeTest, RandomizedManyRunsProperty) {
  Random rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    MemEnv env;
    std::vector<RunInfo> runs;
    std::vector<Key> all;
    const size_t k = 1 + rng.Uniform(20);
    for (size_t w = 0; w < k; ++w) {
      std::vector<Key> keys(rng.Uniform(100));
      for (Key& key : keys) key = static_cast<Key>(rng.Uniform(10000));
      std::sort(keys.begin(), keys.end());
      all.insert(all.end(), keys.begin(), keys.end());
      runs.push_back(MakeForwardRun(&env, "run" + std::to_string(w), keys));
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(MergeAll(&env, runs), all) << "trial " << trial;
  }
}

}  // namespace
}  // namespace twrs
