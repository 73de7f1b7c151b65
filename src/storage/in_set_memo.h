#ifndef TABBENCH_STORAGE_IN_SET_MEMO_H_
#define TABBENCH_STORAGE_IN_SET_MEMO_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "storage/page_store.h"
#include "types/value.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tabbench {

/// What one IN-set frequency scan computed over its storage object: the
/// values of `column` (a heap row position, or 0 for an index's leading key
/// column) whose occurrence count compares `cmp` against `k`.
struct InSetMemoKey {
  int column = -1;
  char cmp = '<';
  int64_t k = 0;

  bool operator<(const InSetMemoKey& o) const {
    return std::tie(column, cmp, k) < std::tie(o.column, o.cmp, o.k);
  }
};

/// One step of a scan's access shape: the page touched, then the number of
/// rows charged before the next page is touched.
struct ScanStep {
  PageId page = kInvalidPageId;
  uint64_t rows = 0;
};

/// A completed IN-set materialization: its value set, and the access shape
/// of the scan that produced it (every page in touch order). Replaying the
/// shape through an ExecContext makes the same charges, in the same order,
/// as the scan itself (exec/operators.h, MaterializeInSet).
struct InSetMemoEntry {
  std::unordered_set<Value, ValueHash> values;
  std::vector<ScanStep> shape;
};

/// Memo of completed IN-set materializations over one storage object
/// (HeapTable, BTree). It lives and dies with the object, and every write
/// to the object clears it, so an entry always describes the object's
/// current contents.
///
/// Find/Store may run on many query threads at once (sessions share the
/// storage). Clear runs on the writer, which by the engine's contract never
/// overlaps a reader; it is lock-free while the memo is empty, so a bulk
/// load's per-row Append never takes the mutex.
class InSetMemo {
 public:
  /// The entry for `key`, or nullptr.
  std::shared_ptr<const InSetMemoEntry> Find(const InSetMemoKey& key) const
      TB_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second;
  }

  /// Records a completed materialization. Concurrent fills of one key
  /// compute equal entries, so the first stored one is kept.
  void Store(const InSetMemoKey& key,
             std::shared_ptr<const InSetMemoEntry> entry) TB_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    entries_.emplace(key, std::move(entry));
    filled_.store(true);
  }

  /// Drops every entry (the owning object was written).
  void Clear() TB_EXCLUDES(mu_) {
    if (!filled_.load()) return;
    MutexLock lock(&mu_);
    entries_.clear();
    filled_.store(false);
  }

 private:
  mutable Mutex mu_;
  std::map<InSetMemoKey, std::shared_ptr<const InSetMemoEntry>> entries_
      TB_GUARDED_BY(mu_);
  /// True while entries_ may be non-empty; lets Clear skip the mutex.
  std::atomic<bool> filled_{false};
};

}  // namespace tabbench

#endif  // TABBENCH_STORAGE_IN_SET_MEMO_H_
