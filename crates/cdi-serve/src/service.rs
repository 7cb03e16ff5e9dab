//! The sharded CDI service: routing, coordinated watermark, queries — and
//! the shard-pool lifecycle (elastic resize, rolling restart, crash
//! supervision).
//!
//! [`CdiService`] owns N shard workers. Every span delivery is routed to a
//! shard by `minispark`'s deterministic [`crate::lifecycle::shard_index`]
//! hash of its target, so a target's whole stream lands on one shard, any
//! process computing the routing agrees on it, and state re-hashes
//! correctly into a *different* shard count.
//!
//! NC fan-out happens at the service edge, mirroring the batch daily job:
//! a span targeting an NC also damages every VM hosted on it — except
//! host-only telemetry (e.g. `inspect_cpu_power_tdp`), which stays at NC
//! scope. The NC's own accumulators keep the full stream either way, so
//! NC-scoped point lookups still answer.
//!
//! The watermark is coordinated: [`CdiService::advance_watermark`] checks
//! monotonicity once at the service level, then broadcasts the advance to
//! every shard queue with *blocking* pushes — watermarks are control
//! messages and are never shed, whatever the span policy is.
//!
//! ## Lifecycle (PR 6)
//!
//! The shard pool lives behind an `RwLock`; queries share it, and the
//! lifecycle operations swap it. Writes (ingest, watermark) additionally
//! pass through an [`AdmissionGate`], which a [`CdiService::resize`] or
//! [`CdiService::rolling_restart`] fences: admission pauses, in-flight
//! deliveries finish, queues drain to the fence watermark, per-target
//! state splits/merges through the snapshot re-hash path, the new pool
//! cuts over atomically, and the fence lifts. Producers observe a stall,
//! never an error and never a lost span — stability is not downtime, and
//! neither is elasticity.
//!
//! Crash supervision is built into the write path: a delivery that finds
//! its shard dead (a drill [`CdiService::kill_shard`]) respawns it from
//! its durable image chain + journal before pushing, and [`CdiService::supervise`]
//! sweeps the pool on demand.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

use cdi_core::catalog::HOST_ONLY_EVENTS;
use cdi_core::error::{CdiError, Result};
use cdi_core::event::{Category, EventSpan, Target};
use cdi_core::indicator::VmCdi;
use cdi_core::time::Timestamp;
use simfleet::Fleet;

use crate::lifecycle::{moved_targets, shard_index, split_merge, AdmissionGate, ResizeOutcome};
use crate::metrics::{LifecycleEvent, MetricsReport, ServiceMetrics, ShardTotals};
use crate::proto::IngestItem;
use crate::queue::{BackpressurePolicy, PushOutcome};
use crate::shard::{Shard, ShardMsg, ShardState, TargetCdi, DEFAULT_CHECKPOINT_EVERY};
use crate::snapshot::ServiceSnapshot;
use crate::topk::merge_top_k;
use crate::tracked::{TrackedMutex, TrackedReadGuard, TrackedRwLock, TrackedWriteGuard};

/// Configuration of a [`CdiService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shards (and worker threads). At least 1.
    pub shards: usize,
    /// Capacity of each shard's ingest queue.
    pub queue_capacity: usize,
    /// What producers experience when a queue fills.
    pub policy: BackpressurePolicy,
    /// Start of the service period every accumulator measures from.
    pub period_start: Timestamp,
    /// Event names that stay at NC scope instead of fanning out to hosted
    /// VMs (the batch job's host-only telemetry exclusion).
    pub host_only_events: Vec<String>,
    /// Applied messages between per-shard durability epoch cuts
    /// (crash-recovery granularity: a respawn replays at most this many
    /// journal entries).
    pub checkpoint_every: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_capacity: 1024,
            policy: BackpressurePolicy::Block,
            period_start: 0,
            host_only_events: HOST_ONLY_EVENTS.map(String::from).to_vec(),
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }
}

/// What happened to one logical span offered to [`CdiService::ingest`]
/// (after NC fan-out, one logical span can be several deliveries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Deliveries accepted into shard queues.
    pub accepted: usize,
    /// Deliveries shed by full queues (only under
    /// [`BackpressurePolicy::Shed`]).
    pub shed: usize,
}

/// The sharded, live CDI service.
///
/// The canonical lock order for the whole crate is declared below. The
/// static analyzer (stability-lint R6) merges these chains with every
/// inferred same-scope nesting and fails on any cycle; the runtime
/// sanitizer ([`crate::tracked`]) mirrors the same chains in
/// `DECLARED_CHAINS` and checks every debug-build acquisition against
/// them. Edit both together — `tests/lock_sanitizer.rs` keeps them equal.
// lock-order: lifecycle -> gate -> pool -> worker -> queue -> applied -> checkpoint -> journal -> state -> events
// lock-order: pool -> watermark -> events
#[derive(Debug)]
pub struct CdiService {
    cfg: ServeConfig,
    /// The shard pool. Queries take the read lock; lifecycle operations
    /// swap the whole vector under the write lock (the atomic cutover).
    pool: TrackedRwLock<Vec<Shard>>,
    /// NC → hosted VMs, for ingest-time fan-out.
    routes: HashMap<u64, Vec<u64>>,
    /// The coordinated watermark (the value last broadcast).
    watermark: TrackedMutex<Timestamp>,
    /// Shared with every shard so respawns land in the same event log.
    metrics: Arc<ServiceMetrics>,
    /// The ingest-admission fence lifecycle operations raise.
    gate: AdmissionGate,
    /// Serializes resize / rolling restart / kill so two lifecycle
    /// operations never interleave their fences.
    lifecycle: TrackedMutex<()>,
}

fn relock<T>(r: std::sync::LockResult<T>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl CdiService {
    /// Start a service with empty state.
    pub fn new(cfg: ServeConfig) -> Result<CdiService> {
        Self::validate(&cfg)?;
        let states = (0..cfg.shards).map(|_| ShardState::new(cfg.period_start)).collect();
        let watermark = cfg.period_start;
        Ok(Self::over(cfg, states, watermark))
    }

    /// A service over pre-built shard states, one shard per state.
    fn over(cfg: ServeConfig, states: Vec<ShardState>, watermark: Timestamp) -> CdiService {
        let metrics = Arc::new(ServiceMetrics::default());
        let pool = Self::spawn_pool(&cfg, &metrics, states);
        CdiService {
            cfg,
            pool: TrackedRwLock::new("pool", pool),
            routes: HashMap::new(),
            watermark: TrackedMutex::new("watermark", watermark),
            metrics,
            gate: AdmissionGate::default(),
            lifecycle: TrackedMutex::new("lifecycle", ()),
        }
    }

    /// Spawn one supervised shard per state, indexed in order.
    fn spawn_pool(
        cfg: &ServeConfig,
        metrics: &Arc<ServiceMetrics>,
        states: Vec<ShardState>,
    ) -> Vec<Shard> {
        states
            .into_iter()
            .enumerate()
            .map(|(i, st)| Self::spawn_shard(cfg, metrics, i, st))
            .collect()
    }

    fn spawn_shard(
        cfg: &ServeConfig,
        metrics: &Arc<ServiceMetrics>,
        index: usize,
        state: ShardState,
    ) -> Shard {
        Shard::spawn_supervised(
            state,
            cfg.queue_capacity,
            cfg.checkpoint_every,
            index,
            Arc::clone(metrics),
        )
    }

    fn validate(cfg: &ServeConfig) -> Result<()> {
        if cfg.shards == 0 {
            return Err(CdiError::invalid("service needs at least one shard"));
        }
        if cfg.queue_capacity == 0 {
            return Err(CdiError::invalid("queue capacity must be positive"));
        }
        Ok(())
    }

    /// Install NC → VM routing from the fleet topology (builder style).
    pub fn with_fleet_routing(mut self, fleet: &Fleet) -> CdiService {
        let mut routes: HashMap<u64, Vec<u64>> = HashMap::new();
        for nc in fleet.ncs() {
            routes.insert(nc.id, fleet.vms_on(nc.id).to_vec());
        }
        self.routes = routes;
        self
    }

    fn rd(&self) -> TrackedReadGuard<'_, Vec<Shard>> {
        relock(self.pool.read())
    }

    fn wr(&self) -> TrackedWriteGuard<'_, Vec<Shard>> {
        relock(self.pool.write())
    }

    /// The service configuration (the *initial* shard count; see
    /// [`CdiService::shard_count`] for the live one).
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Current number of shards in the pool.
    pub fn shard_count(&self) -> usize {
        self.rd().len()
    }

    /// The coordinated watermark (last value broadcast to the shards).
    pub fn watermark(&self) -> Timestamp {
        *relock(self.watermark.lock())
    }

    /// Deterministic shard index of a target under the *current* pool
    /// width. Advisory: a concurrent resize can change the width between
    /// this call and the next; internal paths compute the index under the
    /// pool lock instead.
    pub fn shard_of(&self, target: Target) -> usize {
        shard_index(target, self.rd().len())
    }

    /// Offer one logical span. NC targets fan out to their hosted VMs
    /// (host-only event names excepted) in addition to the NC itself.
    ///
    /// Blocks while a lifecycle fence is up: elasticity stalls producers,
    /// it never loses or errors their spans.
    pub fn ingest(&self, target: Target, span: EventSpan) -> IngestReport {
        self.gate.admit(|| {
            let pool = self.rd(); // lock: pool
            let mut report = IngestReport::default();
            self.fan_out(&pool, target, &span, &mut report);
            report
        })
    }

    /// Offer many logical spans in one request: the whole batch passes
    /// the lifecycle gate once, fans out under a single pool read guard,
    /// and is grouped per shard so each queue is locked once per group
    /// rather than once per span — the server-side half of
    /// [`crate::proto::Request::IngestBatch`], which the cdipack wire
    /// dialect compresses into one frame.
    ///
    /// Per-shard delivery order within the batch matches the per-span
    /// path; only the interleaving *across* shards differs, which
    /// concurrent producers never ordered anyway.
    pub fn ingest_batch(&self, items: &[IngestItem]) -> IngestReport {
        self.gate.admit(|| {
            let pool = self.rd(); // lock: pool
            let mut report = IngestReport::default();
            let mut groups: Vec<Vec<ShardMsg>> = Vec::with_capacity(pool.len());
            groups.resize_with(pool.len(), Vec::new);
            for item in items {
                self.expand(&pool, item.target, &item.span, &mut groups);
            }
            for (shard, msgs) in pool.iter().zip(groups) {
                if msgs.is_empty() {
                    continue;
                }
                // Write-path supervision, once per group (the per-span
                // path checks per push for the same reason).
                if !shard.is_alive() {
                    shard.respawn_if_dead();
                }
                let (accepted, dropped) = shard.queue.push_many(msgs, self.cfg.policy);
                shard.note_enqueued_many(accepted);
                ServiceMetrics::add(&self.metrics.spans_ingested, accepted);
                ServiceMetrics::add(&self.metrics.spans_shed, dropped);
                report.accepted += usize::try_from(accepted).unwrap_or(usize::MAX);
                report.shed += usize::try_from(dropped).unwrap_or(usize::MAX);
            }
            report
        })
    }

    /// The group-building twin of [`CdiService::fan_out`]: expand one
    /// logical span (including its NC→VM fan-out) into per-shard message
    /// groups instead of pushing each delivery individually.
    fn expand(
        &self,
        pool: &[Shard],
        target: Target,
        span: &EventSpan,
        groups: &mut [Vec<ShardMsg>],
    ) {
        if let Target::Nc(nc) = target {
            if !self.cfg.host_only_events.iter().any(|n| n == &span.name) {
                if let Some(vms) = self.routes.get(&nc) {
                    for &vm in vms {
                        let t = Target::Vm(vm);
                        groups[shard_index(t, pool.len())]
                            .push(ShardMsg::Span { target: t, span: span.clone() });
                    }
                }
            }
        }
        groups[shard_index(target, pool.len())]
            .push(ShardMsg::Span { target, span: span.clone() });
    }

    /// NC fan-out for one logical span: hosted VMs first (unless the
    /// event is host-only), then the target itself.
    fn fan_out(&self, pool: &[Shard], target: Target, span: &EventSpan, report: &mut IngestReport) {
        if let Target::Nc(nc) = target {
            if !self.cfg.host_only_events.iter().any(|n| n == &span.name) {
                if let Some(vms) = self.routes.get(&nc) {
                    for &vm in vms {
                        self.deliver(pool, Target::Vm(vm), span.clone(), report);
                    }
                }
            }
        }
        self.deliver(pool, target, span.clone(), report);
    }

    fn deliver(&self, pool: &[Shard], target: Target, span: EventSpan, report: &mut IngestReport) {
        let shard = &pool[shard_index(target, pool.len())];
        // Write-path supervision: a dead shard's queue would fill and
        // stall a blocking producer forever, so heal before pushing.
        if !shard.is_alive() {
            shard.respawn_if_dead();
        }
        match shard.queue.push(ShardMsg::Span { target, span }, self.cfg.policy) {
            PushOutcome::Accepted => {
                shard.note_enqueued();
                ServiceMetrics::bump(&self.metrics.spans_ingested);
                report.accepted += 1;
            }
            PushOutcome::Shed | PushOutcome::Closed => {
                ServiceMetrics::bump(&self.metrics.spans_shed);
                report.shed += 1;
            }
        }
    }

    /// Advance the coordinated watermark, broadcasting to every shard.
    /// Watermarks are control messages: the broadcast blocks for space
    /// regardless of the span backpressure policy.
    pub fn advance_watermark(&self, to: Timestamp) -> Result<()> {
        self.gate.admit(|| {
            {
                let mut wm = relock(self.watermark.lock());
                if to < *wm {
                    return Err(CdiError::invalid(format!(
                        "watermark cannot move backwards ({} -> {to})",
                        *wm
                    )));
                }
                *wm = to;
            }
            // Collect queue handles under the pool lock, then push after
            // releasing it: `push_blocking` can park on a full queue, and
            // blocking while holding the pool guard would stall every
            // query behind the broadcast (stability-lint R7). The handles
            // outlive the guard safely because the broadcast runs inside
            // `gate.admit`, and a resize fences admission (waiting for
            // in-flight admissions) before it swaps the pool.
            let queues: Vec<_> = {
                let pool = self.rd(); // lock: pool
                pool.iter()
                    .map(|shard| {
                        if !shard.is_alive() {
                            shard.respawn_if_dead();
                        }
                        (Arc::clone(&shard.queue), shard.enqueued_handle())
                    })
                    .collect()
            };
            for (queue, enqueued) in queues {
                if queue.push_blocking(ShardMsg::Watermark(to)) == PushOutcome::Accepted {
                    enqueued.fetch_add(1, Ordering::SeqCst);
                }
            }
            Ok(())
        })
    }

    /// Block until every shard has applied everything accepted so far
    /// (respawning any dead worker encountered along the way).
    pub fn flush(&self) {
        for shard in self.rd().iter() {
            shard.flush();
        }
    }

    /// Live CDI of one target, or `None` if the service has never seen it.
    pub fn point(&self, target: Target) -> Result<Option<TargetCdi>> {
        ServiceMetrics::bump(&self.metrics.queries);
        let pool = self.rd();
        pool[shard_index(target, pool.len())]
            .with_state(|st| st.point(target))
            .transpose()
    }

    /// The global `k` worst targets by one category's indicator: each
    /// shard reports its own top `k`, merged with a k-way heap merge.
    pub fn top_k(&self, k: usize, category: Category) -> Result<Vec<(Target, f64)>> {
        ServiceMetrics::bump(&self.metrics.queries);
        let pool = self.rd();
        let mut lists = Vec::with_capacity(pool.len());
        for shard in pool.iter() {
            lists.push(shard.with_state(|st| st.top_k(k, category))?);
        }
        Ok(merge_top_k(&lists, k))
    }

    /// A Formula 4-shaped row for one VM (zero damage if never seen).
    pub fn vm_row(&self, vm: u64) -> Result<VmCdi> {
        let pool = self.rd();
        pool[shard_index(Target::Vm(vm), pool.len())].with_state(|st| st.vm_row(vm))
    }

    /// [`CdiService::vm_row`] for each of `vms`, in their order, under one
    /// pool read guard and one state lock per shard — what a rollup over
    /// thousands of VMs reads.
    pub fn vm_rows(&self, vms: &[u64]) -> Result<Vec<VmCdi>> {
        let pool = self.rd();
        let home: Vec<usize> =
            vms.iter().map(|&vm| shard_index(Target::Vm(vm), pool.len())).collect();
        let mut rows: Vec<Option<VmCdi>> = vec![None; vms.len()];
        for (s, shard) in pool.iter().enumerate() {
            shard.with_state(|st| -> Result<()> {
                for (i, &vm) in vms.iter().enumerate() {
                    if home[i] == s {
                        rows[i] = Some(st.vm_row(vm)?);
                    }
                }
                Ok(())
            })?;
        }
        // Every VM has exactly one home shard, so no row is missing.
        Ok(rows.into_iter().flatten().collect())
    }

    /// Damage (µ-weight·ms) frozen so far for one target, per category;
    /// all zero if never seen ([`ShardState::damage`]).
    pub fn damage(&self, target: Target) -> [u64; 3] {
        let pool = self.rd();
        pool[shard_index(target, pool.len())].with_state(|st| st.damage(target))
    }

    /// Total distinct targets tracked across all shards.
    pub fn target_count(&self) -> usize {
        self.rd().iter().map(|s| s.with_state(|st| st.target_count())).sum()
    }

    /// Service counters plus shard-level late/rejection totals and the
    /// pool gauges (shard count, queue depth, queue high-water mark).
    pub fn metrics(&self) -> MetricsReport {
        let pool = self.rd();
        self.metrics.report(Self::totals(&pool))
    }

    fn totals(pool: &[Shard]) -> ShardTotals {
        let mut t = ShardTotals { shards: pool.len(), ..ShardTotals::default() };
        for shard in pool {
            let (d, c, r) = shard.with_state(|st| {
                let (d, c) = st.late_totals();
                (d, c, st.rejected())
            });
            t.late_dropped += d;
            t.late_clipped += c;
            t.rejected += r;
            t.queue_depth += shard.queue.depth() as u64;
            t.queue_depth_hwm = t.queue_depth_hwm.max(shard.queue.high_water_mark() as u64);
        }
        t
    }

    /// Read-and-reset the worst per-shard queue high-water mark — the
    /// auto-scaler's sampling primitive: each call sees the deepest any
    /// queue has been since the previous call.
    pub fn take_queue_hwm(&self) -> u64 {
        self.rd().iter().map(|s| s.queue.take_high_water_mark() as u64).max().unwrap_or(0)
    }

    /// Sweep the pool for dead shard workers and respawn them from their
    /// image chains + journals. Returns how many were healed.
    pub fn supervise(&self) -> usize {
        self.rd().iter().filter(|s| s.respawn_if_dead()).count()
    }

    /// Raise the admission fence and wait for in-flight writes to finish,
    /// healing dead shards throughout: a fenced producer may be parked on
    /// a dead shard's full queue, and only a respawned worker can make the
    /// space that lets it finish.
    fn quiesce_fenced(&self) {
        self.gate.fence_begin();
        loop {
            for shard in self.rd().iter() {
                shard.respawn_if_dead();
            }
            if self.gate.is_quiesced() {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Elastically resize the shard pool to `new_shards` while producers
    /// keep writing: fence admission, drain every queue to the fence
    /// watermark, split/merge per-target state through the snapshot
    /// re-hash path, cut the new pool over atomically, lift the fence.
    ///
    /// Producers observe a stall (Block) or shed window of zero — the
    /// fence parks them *before* their span is offered, so nothing is
    /// lost and the resized service agrees bit-for-bit with one that was
    /// never resized.
    pub fn resize(&self, new_shards: usize) -> Result<ResizeOutcome> {
        if new_shards == 0 {
            return Err(CdiError::invalid("cannot resize to zero shards"));
        }
        let _lc = relock(self.lifecycle.lock());
        let from = self.shard_count();
        if new_shards == from {
            return Ok(ResizeOutcome {
                // ordering: gauge echoed in a no-op result, nothing synchronizes on it
                epoch: self.metrics.fence_epoch.load(Ordering::Relaxed),
                from_shards: from,
                to_shards: from,
                moved_targets: 0,
                drained_msgs: 0,
            });
        }
        // ordering: epoch bumps happen only under the lifecycle lock, which orders them
        let epoch = self.metrics.fence_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.events.record(LifecycleEvent::ResizeStarted {
            epoch,
            from_shards: from,
            to_shards: new_shards,
        });
        self.quiesce_fenced();
        let result = self.resize_fenced(epoch, from, new_shards);
        self.gate.lift();
        result
    }

    /// The fenced body of [`CdiService::resize`]: build the new pool
    /// first, swap only on success — an error leaves the old pool serving.
    fn resize_fenced(&self, epoch: u64, from: usize, to: usize) -> Result<ResizeOutcome> {
        let mut pool = self.wr(); // lock: pool
        let drained_msgs: u64 = pool.iter().map(|s| s.queue.depth() as u64).sum();
        for shard in pool.iter() {
            // lint-allow(R7): resize drains shards under the pool write guard by design: admission is fenced first, so the drain is bounded and holding the guard is what makes the cutover atomic
            shard.drain_to_fence();
        }
        let watermark = self.watermark();
        let mut targets = Vec::new();
        let mut rejected = 0u64;
        for shard in pool.iter() {
            targets.extend(shard.with_state(|st| st.snapshot()));
            rejected += shard.with_state(|st| st.rejected());
        }
        targets.sort_by_key(|t| t.target);
        let states = split_merge(&targets, to, self.cfg.period_start, watermark)?;
        let moved = moved_targets(&targets, from, to);
        // Only mutate counters past the last fallible step.
        // ordering: loss statistic for reports; the pool write lock orders the cutover
        self.metrics.rejected_carried.fetch_add(rejected, Ordering::Relaxed);
        // The atomic cutover: readers blocked on the pool lock see only
        // the new width. Old shards shut down on drop (queues empty).
        *pool = Self::spawn_pool(&self.cfg, &self.metrics, states);
        drop(pool);
        ServiceMetrics::bump(&self.metrics.resizes);
        self.metrics.events.record(LifecycleEvent::ResizeFinished {
            epoch,
            from_shards: from,
            to_shards: to,
            moved_targets: moved,
            drained_msgs,
        });
        Ok(ResizeOutcome {
            epoch,
            from_shards: from,
            to_shards: to,
            moved_targets: moved,
            drained_msgs,
        })
    }

    /// Restart every shard in place, one at a time, each under its own
    /// fence epoch: drain the shard, rebuild its state through the
    /// snapshot path, swap the rebuilt shard in. The pool width never
    /// changes and only one shard is ever offline — the single-shard
    /// upgrade/roll primitive.
    pub fn rolling_restart(&self) -> Result<()> {
        let _lc = relock(self.lifecycle.lock());
        let n = self.shard_count();
        for i in 0..n {
            // ordering: bumped only under the lifecycle lock, same as resize
            let epoch = self.metrics.fence_epoch.fetch_add(1, Ordering::Relaxed) + 1;
            self.quiesce_fenced();
            let result = self.restart_one_fenced(epoch, i);
            self.gate.lift();
            result?;
        }
        Ok(())
    }

    fn restart_one_fenced(&self, epoch: u64, i: usize) -> Result<()> {
        let mut pool = self.wr(); // lock: pool
        if i >= pool.len() {
            return Ok(());
        }
        let drained_msgs = pool[i].queue.depth() as u64;
        // lint-allow(R7): rolling restart drains one shard under the pool write guard: same fenced-drain argument as resize, one shard at a time
        pool[i].drain_to_fence();
        let rebuilt = pool[i].with_state(|st| {
            ShardState::from_parts(
                self.cfg.period_start,
                st.watermark(),
                st.rejected(),
                &st.snapshot(),
            )
        })?;
        pool[i] = Self::spawn_shard(&self.cfg, &self.metrics, i, rebuilt);
        drop(pool);
        ServiceMetrics::bump(&self.metrics.shard_restarts);
        self.metrics.events.record(LifecycleEvent::ShardRestarted {
            epoch,
            shard: i,
            drained_msgs,
        });
        Ok(())
    }

    /// Chaos drill: kill one shard worker. Its live state is wiped as a
    /// crash would; queued messages survive in the queue and supervision
    /// (the next delivery, flush, or [`CdiService::supervise`]) respawns
    /// it from its image chain + journal. Returns `false` for an
    /// out-of-range index.
    pub fn kill_shard(&self, shard: usize) -> bool {
        let _lc = relock(self.lifecycle.lock());
        let pool = self.rd(); // lock: pool
        let Some(s) = pool.get(shard) else {
            return false;
        };
        s.kill();
        ServiceMetrics::bump(&self.metrics.shard_kills);
        self.metrics.events.record(LifecycleEvent::ShardKilled { shard });
        true
    }

    /// Freeze the whole service into a serializable snapshot under a
    /// lifecycle fence: admission pauses, queues drain, every target's
    /// accumulator snapshots are collected sorted by target (stable bytes
    /// for identical state), and the fence lifts.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let _lc = relock(self.lifecycle.lock());
        self.quiesce_fenced();
        let snap = {
            let pool = self.rd(); // lock: pool
            for shard in pool.iter() {
                // lint-allow(R7): snapshot drains under the lifecycle+pool guards: the fence is already up, so drains are bounded, and the guards are what freeze the state being serialized
                shard.drain_to_fence();
            }
            ServiceMetrics::bump(&self.metrics.snapshots);
            let mut targets = Vec::new();
            for shard in pool.iter() {
                targets.extend(shard.with_state(|st| st.snapshot()));
            }
            targets.sort_by_key(|a| a.target);
            ServiceSnapshot {
                period_start: self.cfg.period_start,
                watermark: self.watermark(),
                targets,
                metrics: self.metrics.report(Self::totals(&pool)),
            }
        };
        self.gate.lift();
        snap
    }

    /// Revive a service from a snapshot. The shard count of `cfg` may
    /// differ from the snapshotted service's — targets re-hash through the
    /// same [`split_merge`] path an elastic resize uses.
    pub fn restore(cfg: ServeConfig, snap: &ServiceSnapshot) -> Result<CdiService> {
        Self::validate(&cfg)?;
        if snap.watermark < snap.period_start {
            return Err(CdiError::invalid(format!(
                "snapshot watermark {} precedes period start {}",
                snap.watermark, snap.period_start
            )));
        }
        let cfg = ServeConfig { period_start: snap.period_start, ..cfg };
        let states = split_merge(&snap.targets, cfg.shards, cfg.period_start, snap.watermark)?;
        let service = Self::over(cfg, states, snap.watermark);
        service.metrics.reseed(&snap.metrics);
        Ok(service)
    }

    /// Close every queue and join every worker. Further ingest is shed;
    /// queries keep answering from the final state.
    pub fn shutdown(&mut self) {
        for shard in self.wr().iter() {
            shard.shutdown();
        }
    }

    /// Test/bench instrumentation: pause or resume all shard workers to
    /// deterministically exercise full-queue behaviour.
    pub fn set_paused(&self, paused: bool) {
        for shard in self.rd().iter() {
            if paused {
                shard.queue.pause();
            } else {
                shard.queue.resume();
            }
        }
    }
}
