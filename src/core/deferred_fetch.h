// Deferred cache-fetching (paper §4.1.2): when concurrent operations miss
// the cache, their storage reads are combined into batched MultiReads,
// "reducing read requests and minimizing costs in both tiers".
//
// Group commit, not a timer: the first miss reads at once; misses that
// arrive while that read is on the wire queue up and go out together as the
// next read, issued by the same leader as soon as the first returns. A lone
// miss therefore pays one storage read and nothing more, and batches grow
// with the load. A miss never joins a read already in flight — that read
// may predate a write the miss must observe — so every read a caller waits
// for was issued after the caller registered.

#ifndef TIERBASE_CORE_DEFERRED_FETCH_H_
#define TIERBASE_CORE_DEFERRED_FETCH_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/options.h"
#include "core/storage_adapter.h"

namespace tierbase {

class DeferredFetcher {
 public:
  DeferredFetcher(StorageAdapter* storage, DeferredFetchOptions options);

  /// Fetches `key` from storage, sharing a batch with concurrent callers.
  /// Returns NotFound when the key is absent from the storage tier.
  Status Fetch(const Slice& key, std::string* value);

  /// Fetches a whole batch, deduplicating against concurrent callers'
  /// queued (not yet sent) keys. Per-key outcomes land in statuses[i]
  /// (NotFound for absent keys).
  void FetchMany(const std::vector<Slice>& keys,
                 std::vector<std::string>* values,
                 std::vector<Status>* statuses);

  struct Stats {
    uint64_t fetches = 0;
    uint64_t batch_calls = 0;  // fetches/batch_calls = batching factor.
    uint64_t shared = 0;       // Fetches that piggybacked on another's key.
  };
  Stats GetStats() const;

 private:
  struct PendingKey {
    std::string key;
    bool done = false;
    bool found = false;
    std::string value;
    Status error;
  };

  /// Leader: issues MultiReads of up to max_batch queued keys, oldest
  /// first, until the queue is empty, then clears leader_active_.
  void LeaderDrain();

  StorageAdapter* storage_;
  DeferredFetchOptions options_;

  mutable common::Mutex mu_;
  common::CondVar cv_{&mu_};
  /// Keys waiting for the next read, in arrival order, and the same keys
  /// indexed for deduplication. A key leaves both when the leader sends
  /// it; its PendingKey payload is written by the leader under mu_ and
  /// read by waiters only after observing done == true under mu_.
  std::deque<std::shared_ptr<PendingKey>> queue_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::shared_ptr<PendingKey>> queued_
      GUARDED_BY(mu_);
  bool leader_active_ GUARDED_BY(mu_) = false;
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace tierbase

#endif  // TIERBASE_CORE_DEFERRED_FETCH_H_
