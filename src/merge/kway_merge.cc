#include "merge/kway_merge.h"

#include <algorithm>

#include "exec/async_io.h"
#include "merge/loser_tree.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"

namespace twrs {

RunCursor::RunCursor(Env* env, RunInfo run, size_t block_bytes,
                     size_t prefetch_blocks)
    : env_(env),
      run_(std::move(run)),
      block_bytes_(block_bytes),
      prefetch_blocks_(prefetch_blocks) {}

Status RunCursor::Init() { return InitSlice(0, kMergeNoLimit); }

Status RunCursor::InitSlice(uint64_t skip, uint64_t limit) {
  segment_ = 0;
  valid_ = false;
  forward_.reset();
  reverse_.reset();
  skip_remaining_ = skip;
  limit_remaining_ = limit;
  return Advance();
}

Status RunCursor::Next() { return Advance(); }

Status RunCursor::Advance() {
  if (limit_remaining_ == 0) {
    valid_ = false;
    return Status::OK();
  }
  for (;;) {
    // Pull from the currently open segment reader, if any.
    bool eof = true;
    if (forward_ != nullptr) {
      TWRS_RETURN_IF_ERROR(forward_->Next(&current_, &eof));
    } else if (reverse_ != nullptr) {
      TWRS_RETURN_IF_ERROR(reverse_->Next(&current_, &eof));
    }
    if (!eof) {
      valid_ = true;
      --limit_remaining_;
      return Status::OK();
    }
    forward_.reset();
    reverse_.reset();
    if (segment_ == run_.segments.size()) {
      valid_ = false;
      return Status::OK();
    }
    const RunSegment& seg = run_.segments[segment_++];
    if (seg.count == 0) continue;
    if (skip_remaining_ >= seg.count) {
      // The slice starts past this whole segment: account for it from its
      // metadata count without opening any file.
      skip_remaining_ -= seg.count;
      continue;
    }
    if (seg.reverse) {
      reverse_ = std::make_unique<ReverseRunReader>(env_, seg.path,
                                                    seg.num_files,
                                                    block_bytes_);
      TWRS_RETURN_IF_ERROR(reverse_->status());
      if (skip_remaining_ > 0) {
        TWRS_RETURN_IF_ERROR(reverse_->SkipRecords(skip_remaining_));
      }
    } else {
      std::unique_ptr<SequentialFile> file;
      TWRS_RETURN_IF_ERROR(env_->NewSequentialFile(seg.path, &file));
      if (skip_remaining_ > 0) {
        // Position before wrapping: a prefetcher starts pumping from its
        // construction point, so the skip must land on the raw handle.
        TWRS_RETURN_IF_ERROR(file->Skip(skip_remaining_ * kRecordBytes));
      }
      if (prefetch_blocks_ > 0 && !env_->io_capabilities().async_reads) {
        // A natively async backend (IoUringEnv) already keeps read-ahead
        // blocks in flight; a pump thread on top would only add a copy.
        file = std::make_unique<PrefetchingSequentialFile>(
            std::move(file), block_bytes_, prefetch_blocks_);
      }
      forward_ = std::make_unique<RecordReader>(std::move(file),
                                                block_bytes_);
      TWRS_RETURN_IF_ERROR(forward_->status());
    }
    skip_remaining_ = 0;
  }
}

namespace {

/// The emitting end of a merge loop: appends each record to the writer,
/// keeps the first and last keys (the stream's bounds, since it is
/// sorted), and feeds progress in batches so the per-record cost is a
/// local increment. The destructor flushes the progress remainder on
/// every exit path (success, cancel, error unwind).
class MergeEmitter {
 public:
  static constexpr uint64_t kBatch = 1024;

  MergeEmitter(RecordWriter* out, ProgressCounters* progress)
      : out_(out), progress_(progress) {}

  ~MergeEmitter() {
    if (progress_ != nullptr && count_ % kBatch > 0) {
      progress_->AddRecordsMerged(count_ % kBatch);
    }
  }

  Status Emit(Key key) {
    TWRS_RETURN_IF_ERROR(out_->Append(key));
    if (count_++ == 0) first_ = key;
    last_ = key;
    if (progress_ != nullptr && count_ % kBatch == 0) {
      progress_->AddRecordsMerged(kBatch);
    }
    return Status::OK();
  }

  Key first() const { return first_; }
  Key last() const { return last_; }

 private:
  RecordWriter* out_;
  ProgressCounters* progress_;
  uint64_t count_ = 0;
  Key first_ = 0;
  Key last_ = 0;
};

/// Fan-in at or below which a flat min-scan replaces the loser tree. At
/// these widths the whole candidate set fits in one or two vector loads,
/// so a branchless simd::MinIndexN beats the tree's pointer chasing.
constexpr size_t kSmallMergeFanIn = 8;

/// Small-fan-in merge: live cursors' heads sit in a flat array scanned by
/// MinIndexN each round. Ties resolve to the lowest array index and
/// exhausted ways are compacted out preserving order, so the emitted key
/// sequence is byte-identical to the loser tree's (stable lowest-way
/// tie-break, see loser_tree.h).
Status MergeSmallFanIn(std::vector<std::unique_ptr<RunCursor>>* cursors,
                       const CancelToken* cancel, const MergeWindow& window,
                       MergeEmitter* emitter) {
  Key keys[kSmallMergeFanIn];
  RunCursor* ways[kSmallMergeFanIn];
  size_t live = 0;
  for (auto& cursor : *cursors) {
    if (cursor->valid()) {
      keys[live] = cursor->key();
      ways[live] = cursor.get();
      ++live;
    }
  }
  // Resolve dispatch once and batch the call counters: one atomic add for
  // the whole merge instead of one per selected record.
  const simd::DispatchLevel level = simd::ActiveDispatchLevel();
  const auto min_index = level == simd::DispatchLevel::kAvx2
                             ? simd::internal::MinIndexNAvx2
                             : simd::internal::MinIndexNScalar;
  uint64_t selections = 0;
  uint64_t to_skip = window.skip;
  uint64_t remaining = window.limit;
  Status status = Status::OK();
  while (live > 0 && remaining > 0) {
    if (IsCancelled(cancel)) {
      status = Status::Cancelled("merge cancelled");
      break;
    }
    const size_t idx = min_index(keys, live);
    ++selections;
    if (to_skip > 0) {
      --to_skip;
    } else {
      status = emitter->Emit(keys[idx]);
      if (!status.ok()) break;
      --remaining;
    }
    status = ways[idx]->Next();
    if (!status.ok()) break;
    if (ways[idx]->valid()) {
      keys[idx] = ways[idx]->key();
    } else {
      for (size_t j = idx + 1; j < live; ++j) {
        keys[j - 1] = keys[j];
        ways[j - 1] = ways[j];
      }
      --live;
    }
  }
  simd::AddKernelCalls(simd::Kernel::kMinIndex, level, selections);
  return status;
}

/// Loser-tree merge for fan-in above kSmallMergeFanIn.
Status MergeLoserTree(std::vector<std::unique_ptr<RunCursor>>* cursors,
                      const CancelToken* cancel, const MergeWindow& window,
                      MergeEmitter* emitter) {
  const size_t k = cursors->size();
  LoserTree tree(k);
  for (size_t i = 0; i < k; ++i) {
    if ((*cursors)[i]->valid()) tree.SetInitial(i, (*cursors)[i]->key());
  }
  tree.Build();
  uint64_t to_skip = window.skip;
  uint64_t remaining = window.limit;
  while (!tree.Exhausted() && remaining > 0) {
    if (IsCancelled(cancel)) {
      return Status::Cancelled("merge cancelled");
    }
    const size_t w = tree.WinnerIndex();
    if (to_skip > 0) {
      --to_skip;
    } else {
      TWRS_RETURN_IF_ERROR(emitter->Emit(tree.WinnerKey()));
      --remaining;
    }
    TWRS_RETURN_IF_ERROR((*cursors)[w]->Next());
    if ((*cursors)[w]->valid()) {
      tree.ReplaceWinner((*cursors)[w]->key());
    } else {
      tree.RetireWinner();
    }
  }
  return Status::OK();
}

}  // namespace

Status OpenRunCursors(Env* env, const std::vector<RunInfo>& runs,
                      const MergeIoOptions& io,
                      const std::vector<RunSlice>* slices,
                      std::vector<std::unique_ptr<RunCursor>>* cursors) {
  cursors->clear();
  cursors->reserve(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    const RunSlice slice = slices != nullptr ? (*slices)[r] : RunSlice();
    if (slice.length == 0) continue;
    cursors->push_back(std::make_unique<RunCursor>(env, runs[r],
                                                   io.block_bytes,
                                                   io.prefetch_blocks));
    TWRS_RETURN_IF_ERROR(cursors->back()->InitSlice(slice.skip, slice.length));
  }
  return Status::OK();
}

MergeWindow ClampToLimit(uint64_t limit, bool take_last,
                         std::vector<RunSlice>* slices) {
  uint64_t total = 0;
  for (RunSlice& slice : *slices) {
    const uint64_t keep = std::min(slice.length, limit);
    if (take_last) slice.skip += slice.length - keep;
    slice.length = keep;
    total += keep;
  }
  MergeWindow window;
  window.limit = limit;
  if (take_last && total > limit) window.skip = total - limit;
  return window;
}

Status Merge(std::vector<std::unique_ptr<RunCursor>>* cursors,
             const MergeIoOptions& io, const MergeWindow& window,
             RecordWriter* out, RunInfo* info) {
  TWRS_RETURN_IF_ERROR(out->status());
  MergeEmitter emitter(out, io.progress);
  TWRS_RETURN_IF_ERROR(
      cursors->size() <= kSmallMergeFanIn
          ? MergeSmallFanIn(cursors, io.cancel, window, &emitter)
          : MergeLoserTree(cursors, io.cancel, window, &emitter));
  TWRS_RETURN_IF_ERROR(out->Finish());
  if (info != nullptr) {
    RunSegment seg;
    seg.count = out->count();
    *info = RunInfo();
    info->segments.push_back(std::move(seg));
    info->length = out->count();
    info->min_key = emitter.first();
    info->max_key = emitter.last();
  }
  return Status::OK();
}

Status RemoveRunFiles(Env* env, const RunInfo& run) {
  for (const RunSegment& seg : run.segments) {
    if (seg.reverse) {
      for (uint64_t f = 0; f < seg.num_files; ++f) {
        TWRS_RETURN_IF_ERROR(
            env->RemoveFile(ReverseRunWriter::FileName(seg.path, f)));
      }
    } else {
      TWRS_RETURN_IF_ERROR(env->RemoveFile(seg.path));
    }
  }
  return Status::OK();
}

}  // namespace twrs
