#include "service/shard.h"

#include <utility>

namespace tabbench {

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kQuarantined:
      return "quarantined";
    case ShardHealth::kRecovering:
      return "recovering";
  }
  return "unknown";
}

Shard::Shard(const Database* db, uint32_t id, const ShardOptions& options)
    : id_(id),
      options_(options),
      service_(std::make_unique<WorkloadService>(db, [&] {
        ServiceOptions svc = options.service;
        svc.shard_id = id;
        return svc;
      }())) {}

Shard::~Shard() { Shutdown(); }

ShardHealth Shard::health() const {
  MutexLock lock(&mu_);
  return health_;
}

bool Shard::serving() const {
  MutexLock lock(&mu_);
  return health_ == ShardHealth::kHealthy || health_ == ShardHealth::kDegraded;
}

LatencyDigest Shard::latency() const { return latency_.Snapshot(); }

uint64_t Shard::kill_epoch() const {
  MutexLock lock(&mu_);
  return kill_epoch_;
}

void Shard::RecordLatency(double seconds) { latency_.Record(seconds); }

Shard::Transition Shard::TransitionLocked(ShardHealth to, std::string reason) {
  Transition t;
  t.from = health_;
  t.to = to;
  t.reason = std::move(reason);
  t.changed = health_ != to;
  if (t.changed) health_ = to;
  return t;
}

Shard::Transition Shard::EvaluateHealth(double now) {
  const LatencyDigest digest = latency_.Snapshot();
  const ServiceStats svc = service_->stats();
  const uint64_t depth = service_->in_flight();
  MutexLock lock(&mu_);
  if (health_ == ShardHealth::kQuarantined ||
      health_ == ShardHealth::kRecovering) {
    Transition none;
    none.from = none.to = health_;
    return none;
  }
  const ShardHealthThresholds& th = options_.health;
  const uint64_t breaker_delta = svc.breaker_opens - last_breaker_opens_;
  const uint64_t watchdog_delta = svc.watchdog_cancels - last_watchdog_cancels_;
  last_breaker_opens_ = svc.breaker_opens;
  last_watchdog_cancels_ = svc.watchdog_cancels;
  const bool latency_live = digest.count >= th.min_latency_samples;
  if (latency_live && digest.count >= th.latency_window) latency_.Clear();

  std::string reason;
  ShardHealth target = ShardHealth::kHealthy;
  // Severe signals first: any one escalates straight to quarantine.
  if (th.quarantine_queue_depth > 0 && depth > th.quarantine_queue_depth) {
    target = ShardHealth::kQuarantined;
    reason = "queue depth " + std::to_string(depth) + " > " +
             std::to_string(th.quarantine_queue_depth);
  } else if (th.quarantine_breaker_opens > 0 &&
             breaker_delta >= th.quarantine_breaker_opens) {
    target = ShardHealth::kQuarantined;
    reason = "breaker opened " + std::to_string(breaker_delta) + "x";
  } else if (th.quarantine_watchdog_cancels > 0 &&
             watchdog_delta >= th.quarantine_watchdog_cancels) {
    target = ShardHealth::kQuarantined;
    reason = "watchdog cancelled " + std::to_string(watchdog_delta) + " jobs";
  } else if (latency_live && th.quarantine_p99_seconds > 0.0 &&
             digest.p99 > th.quarantine_p99_seconds) {
    target = ShardHealth::kQuarantined;
    reason = "p99 " + std::to_string(digest.p99) + "s > " +
             std::to_string(th.quarantine_p99_seconds) + "s";
  } else if (th.degrade_queue_depth > 0 && depth > th.degrade_queue_depth) {
    target = ShardHealth::kDegraded;
    reason = "queue depth " + std::to_string(depth) + " > " +
             std::to_string(th.degrade_queue_depth);
  } else if (latency_live && th.degrade_p95_seconds > 0.0 &&
             digest.p95 > th.degrade_p95_seconds) {
    target = ShardHealth::kDegraded;
    reason = "p95 " + std::to_string(digest.p95) + "s > " +
             std::to_string(th.degrade_p95_seconds) + "s";
  } else {
    reason = "signals nominal";
  }
  if (target == ShardHealth::kQuarantined) {
    quarantined_at_ = now;
    probes_in_flight_ = 0;
    probe_successes_ = 0;
  }
  return TransitionLocked(target, std::move(reason));
}

bool Shard::MaybeOpenProbeWindow(double now) {
  MutexLock lock(&mu_);
  if (health_ != ShardHealth::kQuarantined) return false;
  if (now - quarantined_at_ < options_.health.quarantine_cooldown_seconds) {
    return false;
  }
  health_ = ShardHealth::kRecovering;
  probes_in_flight_ = 0;
  probe_successes_ = 0;
  return true;
}

bool Shard::AdmitProbe() {
  MutexLock lock(&mu_);
  if (health_ != ShardHealth::kRecovering) return false;
  if (probes_in_flight_ + probe_successes_ >=
      options_.health.readmit_probe_quota) {
    return false;
  }
  ++probes_in_flight_;
  return true;
}

Shard::ProbeVerdict Shard::FinishProbe(bool success, double now) {
  MutexLock lock(&mu_);
  if (health_ != ShardHealth::kRecovering) return ProbeVerdict::kPending;
  if (probes_in_flight_ > 0) --probes_in_flight_;
  if (!success) {
    quarantined_at_ = now;
    probes_in_flight_ = 0;
    probe_successes_ = 0;
    health_ = ShardHealth::kQuarantined;
    return ProbeVerdict::kRequarantined;
  }
  ++probe_successes_;
  if (probe_successes_ >= options_.health.readmit_probe_quota) {
    health_ = ShardHealth::kHealthy;
    probes_in_flight_ = 0;
    probe_successes_ = 0;
    return ProbeVerdict::kReadmitted;
  }
  return ProbeVerdict::kPending;
}

void Shard::Kill(double now) {
  MutexLock lock(&mu_);
  ++kill_epoch_;
  quarantined_at_ = now;
  probes_in_flight_ = 0;
  probe_successes_ = 0;
  health_ = ShardHealth::kQuarantined;
  // Cancel every attempt the shard is serving: their futures resolve
  // Cancelled, and the router (seeing the epoch bump) fails them over to a
  // sibling instead of reporting the cancel to the client. RequestCancel is
  // a relaxed atomic store — nothing blocks under mu_ here.
  for (auto& [ordinal, token] : inflight_) token.RequestCancel();
}

void Shard::RegisterAttempt(uint64_t ordinal, CancellationToken cancel) {
  MutexLock lock(&mu_);
  inflight_[ordinal] = std::move(cancel);
}

void Shard::UnregisterAttempt(uint64_t ordinal) {
  MutexLock lock(&mu_);
  inflight_.erase(ordinal);
}

void Shard::Shutdown() { service_->Shutdown(); }

}  // namespace tabbench
