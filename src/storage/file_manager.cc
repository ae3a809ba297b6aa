#include "storage/file_manager.h"

#include <cstring>

#include "common/env.h"

namespace opdelta::storage {

FileManager::~FileManager() {
  if (file_ != nullptr) {
    // Destruction is not an error path; callers that care about close
    // failures call Close() explicitly first.
    (void)file_->Close();
  }
}

Status FileManager::Open(const std::string& path) {
  // Captured once so every page touch of this file sees the same Env; a
  // FaultInjectionEnv installed via Env::SetDefault before Open therefore
  // observes (and can kill) the whole heap-page path.
  env_ = Env::Default();
  OPDELTA_RETURN_IF_ERROR(env_->NewRandomRWFile(path, &file_));
  path_ = path;
  num_pages_ = static_cast<uint32_t>(file_->Size() / kPageSize);
  return Status::OK();
}

Status FileManager::Close() {
  if (file_ != nullptr) {
    Status st = file_->Close();
    file_.reset();
    return st;
  }
  return Status::OK();
}

Status FileManager::AllocatePage(PageId* id) {
  std::lock_guard<common::OrderedMutex> lock(alloc_mutex_);
  const PageId new_id = num_pages_.load();
  static const char kZeros[kPageSize] = {};
  OPDELTA_RETURN_IF_ERROR(
      file_->Write(static_cast<uint64_t>(new_id) * kPageSize,  // NOLINT(opdelta-R8: the page is zero-filled before its id is published; the mutex keeps page ids dense and in file order)
                   Slice(kZeros, kPageSize)));
  stats_.page_writes.fetch_add(1, std::memory_order_relaxed);
  num_pages_.fetch_add(1);
  *id = new_id;
  return Status::OK();
}

Status FileManager::ReadPage(PageId id, char* buf) {
  if (id >= num_pages_.load()) {
    return Status::InvalidArgument("page id out of range");
  }
  Slice result;
  OPDELTA_RETURN_IF_ERROR(
      file_->Read(static_cast<uint64_t>(id) * kPageSize, kPageSize, &result,
                  buf));
  if (result.size() != kPageSize) {
    return Status::IOError("short page read " + path_);
  }
  if (result.data() != buf) std::memcpy(buf, result.data(), kPageSize);
  stats_.page_reads.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FileManager::WritePage(PageId id, const char* buf) {
  if (id >= num_pages_.load()) {
    return Status::InvalidArgument("page id out of range");
  }
  OPDELTA_RETURN_IF_ERROR(
      file_->Write(static_cast<uint64_t>(id) * kPageSize,
                   Slice(buf, kPageSize)));
  stats_.page_writes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FileManager::Sync() {
  if (file_ != nullptr) {
    OPDELTA_RETURN_IF_ERROR(file_->Sync());
  }
  stats_.syncs.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace opdelta::storage
