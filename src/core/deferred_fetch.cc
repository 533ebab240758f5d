#include "core/deferred_fetch.h"

namespace tierbase {

DeferredFetcher::DeferredFetcher(StorageAdapter* storage,
                                 DeferredFetchOptions options)
    : storage_(storage), options_(options) {}

void DeferredFetcher::LeaderDrain() {
  // Keep reading until the queue is empty: keys queued while a read was on
  // the wire form the next batch rather than being stranded.
  while (true) {
    std::vector<std::string> keys;
    std::vector<std::shared_ptr<PendingKey>> entries;
    {
      common::MutexLock lock(&mu_);
      while (!queue_.empty() && keys.size() < options_.max_batch) {
        entries.push_back(std::move(queue_.front()));
        queue_.pop_front();
        keys.push_back(entries.back()->key);
        queued_.erase(keys.back());
      }
      if (keys.empty()) {
        leader_active_ = false;
        return;
      }
    }

    std::vector<std::string> values;
    std::vector<bool> found;
    Status s = storage_->MultiRead(keys, &values, &found);

    {
      common::MutexLock lock(&mu_);
      ++stats_.batch_calls;
      for (size_t i = 0; i < entries.size(); ++i) {
        entries[i]->done = true;
        if (s.ok()) {
          entries[i]->found = found[i];
          entries[i]->value = std::move(values[i]);
        } else {
          entries[i]->error = s;
        }
      }
    }
    cv_.SignalAll();
  }
}

Status DeferredFetcher::Fetch(const Slice& key, std::string* value) {
  std::vector<std::string> values;
  std::vector<Status> statuses;
  FetchMany({key}, &values, &statuses);
  if (statuses[0].ok()) *value = std::move(values[0]);
  return statuses[0];
}

void DeferredFetcher::FetchMany(const std::vector<Slice>& keys,
                                std::vector<std::string>* values,
                                std::vector<Status>* statuses) {
  const size_t n = keys.size();
  values->assign(n, std::string());
  statuses->assign(n, Status::OK());
  if (n == 0) return;

  // Queue every key (deduplicating against keys already queued, by this
  // call or a concurrent one), then lead unless a leader is active — it
  // will send these keys with its next read.
  std::vector<std::shared_ptr<PendingKey>> mine(n);
  bool leader = false;
  {
    common::MutexLock lock(&mu_);
    for (size_t i = 0; i < n; ++i) {
      ++stats_.fetches;
      std::string k = keys[i].ToString();
      auto it = queued_.find(k);
      if (it != queued_.end()) {
        mine[i] = it->second;
        ++stats_.shared;
      } else {
        mine[i] = std::make_shared<PendingKey>();
        mine[i]->key = k;
        queue_.push_back(mine[i]);
        queued_.emplace(std::move(k), mine[i]);
      }
    }
    if (!leader_active_) {
      leader_active_ = true;
      leader = true;
    }
  }

  if (leader) LeaderDrain();

  {
    common::MutexLock lock(&mu_);
    for (const auto& p : mine) {
      while (!p->done) cv_.Wait();
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!mine[i]->error.ok()) {
      (*statuses)[i] = mine[i]->error;
    } else if (!mine[i]->found) {
      (*statuses)[i] = Status::NotFound("");
    } else {
      (*values)[i] = mine[i]->value;
    }
  }
}

DeferredFetcher::Stats DeferredFetcher::GetStats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace tierbase
