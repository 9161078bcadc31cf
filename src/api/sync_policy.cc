#include "api/sync_policy.h"

namespace bio::api {

SyncPolicy SyncPolicy::for_stack(core::StackKind kind) noexcept {
  switch (kind) {
    case core::StackKind::kExt4DR:
    case core::StackKind::kExt4OD:
      return {.order = Syscall::kFdatasync,
              .durability = Syscall::kFdatasync,
              .full_sync = Syscall::kFsync};
    case core::StackKind::kBfsDR:
      return {.order = Syscall::kFdatabarrier,
              .durability = Syscall::kFdatasync,
              .full_sync = Syscall::kFsync};
    case core::StackKind::kBfsOD:
      // The paper's "relaxing the durability" configuration: every
      // durability point is deliberately demoted to an ordering one.
      return {.order = Syscall::kFdatabarrier,
              .durability = Syscall::kFdatabarrier,
              .full_sync = Syscall::kFbarrier};
    case core::StackKind::kOptFs:
      return {.order = Syscall::kOsync,
              .durability = Syscall::kOsync,
              .full_sync = Syscall::kOsync};
  }
  return {};
}

sim::TaskOf<fs::FsStatus> issue(fs::Filesystem& filesystem, fs::Inode& f,
                                Syscall call) {
  switch (call) {
    case Syscall::kNone:
      break;
    case Syscall::kFsync:
      co_return co_await filesystem.fsync(f);
    case Syscall::kFdatasync:
      co_return co_await filesystem.fdatasync(f);
    case Syscall::kFbarrier:
      co_return co_await filesystem.fbarrier(f);
    case Syscall::kFdatabarrier:
      co_return co_await filesystem.fdatabarrier(f);
    case Syscall::kOsync:
      co_return co_await filesystem.osync(f, /*wait_transfer=*/true);
    case Syscall::kDsync:
      co_return co_await filesystem.dsync(f);
  }
  co_return fs::FsStatus::kOk;
}

}  // namespace bio::api
