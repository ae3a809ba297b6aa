#include "storage/buffer_pool.h"

#include <cstring>
#include <memory>

namespace opdelta::storage {

PageGuard::PageGuard(BufferPool* pool, PageId id, char* data, size_t frame)
    : pool_(pool), id_(id), data_(data), frame_(frame) {}

PageGuard::~PageGuard() { Release(); }

void PageGuard::Release() {
  if (pool_ != nullptr && data_ != nullptr) {
    pool_->Unpin(frame_, dirty_);
  }
  pool_ = nullptr;
  data_ = nullptr;
  dirty_ = false;
}

BufferPool::BufferPool(FileManager* file, size_t capacity)
    : file_(file),
      capacity_(capacity),
      memory_(std::make_unique<char[]>(capacity * kPageSize)),
      frames_(capacity) {
  free_frames_.reserve(capacity);
  for (size_t i = capacity; i > 0; --i) free_frames_.push_back(i - 1);
}

Status BufferPool::GetVictim(size_t* frame_out) {
  if (!free_frames_.empty()) {
    *frame_out = free_frames_.back();
    free_frames_.pop_back();
    return Status::OK();
  }
  // Evict the least recently used unpinned frame.
  if (lru_.empty()) {
    return Status::Busy("buffer pool exhausted: all pages pinned");
  }
  size_t victim = lru_.back();
  lru_.pop_back();
  Frame& f = frames_[victim];
  f.in_lru = false;
  if (f.dirty) {
    OPDELTA_RETURN_IF_ERROR(
        file_->WritePage(f.id, memory_.get() + victim * kPageSize));
    stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
    f.dirty = false;
  }
  page_table_.erase(f.id);
  stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  *frame_out = victim;
  return Status::OK();
}

Status BufferPool::FetchPage(PageId id, PageGuard* guard) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  auto it = page_table_.find(id);
  if (it != page_table_.end()) {
    size_t frame = it->second;
    Frame& f = frames_[frame];
    if (f.in_lru) {
      lru_.erase(f.lru_it);
      f.in_lru = false;
    }
    f.pin_count++;
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
    *guard = PageGuard(this, id, memory_.get() + frame * kPageSize, frame);
    return Status::OK();
  }
  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  size_t frame;
  OPDELTA_RETURN_IF_ERROR(GetVictim(&frame));  // NOLINT(opdelta-R8: a dirty victim is written back under the latch, as the miss fill below reads under it)
  char* data = memory_.get() + frame * kPageSize;
  // Miss fill happens under the pool latch: the single-latch pool design
  // means a frame's contents may only change while the latch is held, so
  // pages cannot be observed mid-fill. Per-frame latches would lift the
  // I/O out; that is a future scalability change, not a deadlock risk
  // (buffer_pool is near the top of the rank order and takes no lock below).
  Status st = file_->ReadPage(id, data);  // NOLINT(opdelta-R8: single-latch pool fills frames under the latch by design)
  if (!st.ok()) {
    free_frames_.push_back(frame);
    return st;
  }
  Frame& f = frames_[frame];
  f.id = id;
  f.pin_count = 1;
  f.dirty = false;
  f.in_lru = false;
  page_table_[id] = frame;
  *guard = PageGuard(this, id, data, frame);
  return Status::OK();
}

Status BufferPool::NewPage(PageGuard* guard) {
  PageId id;
  OPDELTA_RETURN_IF_ERROR(file_->AllocatePage(&id));
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  size_t frame;
  OPDELTA_RETURN_IF_ERROR(GetVictim(&frame));  // NOLINT(opdelta-R8: single-latch pool: a frame's contents change only under the latch, its write-back included)
  char* data = memory_.get() + frame * kPageSize;
  std::memset(data, 0, kPageSize);
  Frame& f = frames_[frame];
  f.id = id;
  f.pin_count = 1;
  f.dirty = true;  // fresh page must reach disk even if never touched again
  f.in_lru = false;
  page_table_[id] = frame;
  *guard = PageGuard(this, id, data, frame);
  return Status::OK();
}

void BufferPool::Unpin(size_t frame, bool dirty) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  Frame& f = frames_[frame];
  if (dirty) f.dirty = true;
  if (--f.pin_count == 0) {
    lru_.push_front(frame);
    f.lru_it = lru_.begin();
    f.in_lru = true;
  }
}

Status BufferPool::FlushAll(bool sync) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  for (auto& [id, frame] : page_table_) {
    Frame& f = frames_[frame];
    if (f.dirty) {
      OPDELTA_RETURN_IF_ERROR(file_->WritePage(  // NOLINT(opdelta-R8: checkpoint must write frames the latch holds stable)
          f.id, memory_.get() + frame * kPageSize));
      f.dirty = false;
    }
  }
  if (sync) return file_->Sync();  // NOLINT(opdelta-R8: checkpoint durability point; latch blocks re-dirtying until it lands)
  return Status::OK();
}

}  // namespace opdelta::storage
