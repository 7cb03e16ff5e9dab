//! One shard: a worker thread draining a bounded queue into per-target
//! streaming accumulators — with crash-respawn durability.
//!
//! A shard owns every target whose `FixedState` hash maps to it. Per
//! target it keeps three [`CdiAccumulator`]s — one per stability category,
//! exactly how the batch path splits spans before Algorithm 1 — so the
//! live sub-metrics never mask each other (DESIGN.md §5, decision 3).
//!
//! The worker applies two message kinds in arrival order: span deliveries
//! and watermark advances. Because the service broadcasts watermarks to
//! every shard *after* the spans of the tick (and producers enqueue spans
//! before the watermark), each shard's state at a watermark equals a batch
//! computation over everything it has seen.
//!
//! ## Crash durability (PR 6, incremental since PR 9)
//!
//! Each shard maintains a durable image entirely in `cdipack` bytes
//! ([`crate::cdipack`]), in one shape: a chain of encoded
//! [`ShardDelta`]s plus a byte journal of the messages applied since the
//! last one was cut. The first image in the chain is the *base* — a full
//! delta cut from an empty state (every target, at the watermark); each
//! later one is an incremental epoch (cut every `checkpoint_every` applied
//! messages, covering only the targets dirtied in that epoch and the
//! watermark it closed at). Once the chain
//! reaches [`MAX_DELTA_CHAIN`] images it collapses into a fresh base. A
//! [`ShardMsg::Crash`] control message — the chaos drill's kill switch —
//! makes the worker wipe its live state and exit, exactly as a crashed
//! process loses its heap. Supervision ([`Shard::respawn_if_dead`]) then
//! starts from a fresh state, applies each image in the chain, replays
//! the journal, and spawns a fresh worker over the *same* queue, so
//! messages that were still queued at the crash are drained by the
//! successor and nothing is lost: the respawned shard equals one that
//! never crashed.
//!
//! Delta replay is exact because damage is an integer sum (DESIGN.md §5,
//! decision 7): untouched targets take one advance to the epoch's closing
//! watermark, which freezes the same total as the live shard's many, and
//! every span-touched target is replaced outright by its full snapshot at
//! epoch close. The replayed byte volume is therefore O(recent change),
//! not O(total state) — measured per respawn in
//! [`LifecycleEvent::ShardRespawned`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LockResult, PoisonError};
use std::thread::JoinHandle;

use cdi_core::error::{CdiError, Result};
use cdi_core::event::{Category, EventSpan, Target};
use cdi_core::indicator::VmCdi;
use cdi_core::num::damage_ratio;
use cdi_core::streaming::{AccumulatorSnapshot, CdiAccumulator};
use cdi_core::time::Timestamp;
use minispark::pack::{PackReader, PackWriter};
use serde::{Deserialize, Serialize};

use crate::cdipack::{self, Pack, ShardDelta};
use crate::metrics::{LifecycleEvent, ServiceMetrics};
use crate::queue::BoundedQueue;
use crate::topk::Ranked;
use crate::tracked::{TrackedCondvar, TrackedMutex};

/// A message on a shard's ingest queue.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardMsg {
    /// Deliver one weighted span to one target.
    Span {
        /// The accumulator key (already fanned out from NC to hosted VMs).
        target: Target,
        /// The weighted event span.
        span: EventSpan,
    },
    /// Advance every accumulator in the shard to this watermark.
    Watermark(Timestamp),
    /// Chaos-drill kill switch: the worker wipes its live state and exits
    /// as if the thread had crashed. Never journaled, never counted as an
    /// applied message; supervision rebuilds the shard from its durable
    /// image chain plus the journal.
    Crash,
}

/// Live CDI of one target across all three sub-metrics — the point-lookup
/// answer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TargetCdi {
    /// The target.
    pub target: Target,
    /// Watermark the values are current to.
    pub watermark: Timestamp,
    /// Live Unavailability Indicator.
    pub unavailability: f64,
    /// Live Performance Indicator.
    pub performance: f64,
    /// Live Control-Plane Indicator.
    pub control_plane: f64,
}

impl TargetCdi {
    /// The indicator for one category.
    pub fn get(&self, category: Category) -> f64 {
        match category {
            Category::Unavailability => self.unavailability,
            Category::Performance => self.performance,
            Category::ControlPlane => self.control_plane,
        }
    }
}

/// Serializable state of one target: its three accumulator snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetSnapshot {
    /// The target.
    pub target: Target,
    /// Unavailability-stream accumulator.
    pub unavailability: AccumulatorSnapshot,
    /// Performance-stream accumulator.
    pub performance: AccumulatorSnapshot,
    /// Control-plane-stream accumulator.
    pub control_plane: AccumulatorSnapshot,
}

/// The durable image supervision rebuilds a crashed shard from, held
/// entirely as `cdipack` bytes. Writers: the worker thread (exclusively,
/// while alive) and [`Shard::compact_durable`] (quiesced shards only).
/// Readers: [`Shard::respawn_if_dead`] (only while the worker is dead).
#[derive(Debug)]
struct Durable {
    /// Encoded [`ShardDelta`]s, oldest first; the first is the full base.
    // bound: collapsed into a single base at MAX_DELTA_CHAIN by cut_epoch
    images: TrackedMutex<Vec<Vec<u8>>>,
    journal: TrackedMutex<JournalBuf>,
}

/// The journal half of the durable image: concatenated encoded
/// [`ShardMsg`] records applied since the last epoch was cut.
#[derive(Debug, Default)]
struct JournalBuf {
    bytes: PackWriter,
    msgs: u64,
}

/// Sizes of one shard's durable image — the recovery-cost accounting the
/// O(delta) respawn guarantee is measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurableStats {
    /// Encoded bytes of the full base image.
    pub base_bytes: u64,
    /// Encoded bytes across the incremental delta chain.
    pub delta_bytes: u64,
    /// Deltas currently chained on the base.
    pub delta_count: usize,
    /// Encoded bytes in the message journal.
    pub journal_bytes: u64,
    /// Messages in the journal.
    pub journal_msgs: u64,
}

/// The accumulator table of one shard.
#[derive(Debug)]
pub struct ShardState {
    period_start: Timestamp,
    watermark: Timestamp,
    targets: HashMap<Target, [CdiAccumulator; 3]>,
    /// Deliveries the accumulators rejected (invalid weight, regressed
    /// watermark) — upstream validation should make this stay 0.
    rejected: u64,
    /// Targets span-touched since the last durability epoch was cut —
    /// exactly what the next [`ShardDelta`] must carry.
    // bound: fleet-sized (subset of `targets`), cleared every epoch by take_delta
    dirty: HashSet<Target>,
    /// Watermark when the current durability epoch opened.
    epoch_start: Timestamp,
}

impl ShardState {
    /// Empty shard accumulating from `period_start`.
    pub fn new(period_start: Timestamp) -> Self {
        ShardState {
            period_start,
            watermark: period_start,
            targets: HashMap::new(),
            rejected: 0,
            dirty: HashSet::new(),
            epoch_start: period_start,
        }
    }

    /// Rebuild a state at `watermark` from target snapshots — the one
    /// constructor behind snapshot restore, resize split/merge, and
    /// rolling restart. Validates each accumulator snapshot and requires
    /// it to sit at `watermark`; nothing is pending in the new state's
    /// durability epoch.
    pub fn from_parts<'a>(
        period_start: Timestamp,
        watermark: Timestamp,
        rejected: u64,
        targets: impl IntoIterator<Item = &'a TargetSnapshot>,
    ) -> Result<ShardState> {
        let mut st = ShardState::new(period_start);
        st.watermark = watermark;
        st.epoch_start = watermark;
        st.rejected = rejected;
        for snap in targets {
            st.restore_target(snap)?;
        }
        Ok(st)
    }

    /// Apply one message. Accumulator-level rejections are counted, not
    /// propagated: one malformed delivery must not stall the queue.
    /// [`ShardMsg::Crash`] is not applicable to a state and counts as a
    /// rejection (the worker intercepts it before `apply`).
    pub fn apply(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Span { target, span } => {
                // bound: fleet-sized (mirrors `targets`), cleared every epoch by take_delta
                self.dirty.insert(target);
                // bound: one entry per target routed here — fleet-sized, not stream-sized
                let accs = self.targets.entry(target).or_insert_with(|| {
                    let mut fresh = [
                        CdiAccumulator::new(self.period_start),
                        CdiAccumulator::new(self.period_start),
                        CdiAccumulator::new(self.period_start),
                    ];
                    // A target first seen mid-stream starts at the shard
                    // watermark: its elapsed service time is the shard's.
                    // Cannot fail — the shard watermark never precedes the
                    // period start a fresh accumulator begins at.
                    for acc in &mut fresh {
                        let _ = acc.advance_watermark(self.watermark);
                    }
                    fresh
                });
                if accs[span.category.index()].ingest(span).is_err() {
                    self.rejected += 1;
                }
            }
            ShardMsg::Watermark(to) => self.advance_all(to),
            ShardMsg::Crash => {
                self.rejected += 1;
            }
        }
    }

    /// Advance the shard watermark and every accumulator; a regressing
    /// watermark is counted as a rejection.
    fn advance_all(&mut self, to: Timestamp) {
        if to < self.watermark {
            self.rejected += 1;
            return;
        }
        self.watermark = to;
        for accs in self.targets.values_mut() {
            for acc in accs.iter_mut() {
                if acc.advance_watermark(to).is_err() {
                    self.rejected += 1;
                }
            }
        }
    }

    /// Watermark this shard has reached.
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Number of distinct targets tracked.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Deliveries rejected by accumulators.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Totals of (late-dropped, late-clipped) spans across all
    /// accumulators.
    pub fn late_totals(&self) -> (u64, u64) {
        let mut dropped = 0u64;
        let mut clipped = 0u64;
        for accs in self.targets.values() {
            for acc in accs {
                dropped += acc.late_dropped() as u64;
                clipped += acc.late_clipped() as u64;
            }
        }
        (dropped, clipped)
    }

    /// Live CDI of one target, or `None` if the shard has never seen it.
    ///
    /// Errors if no service time has elapsed yet (watermark still at the
    /// period start) — there is no CDI of an empty period.
    pub fn point(&self, target: Target) -> Option<Result<TargetCdi>> {
        let accs = self.targets.get(&target)?;
        Some(self.target_cdi(target, accs))
    }

    fn target_cdi(&self, target: Target, accs: &[CdiAccumulator; 3]) -> Result<TargetCdi> {
        Ok(TargetCdi {
            target,
            watermark: self.watermark,
            unavailability: accs[0].cdi()?,
            performance: accs[1].cdi()?,
            control_plane: accs[2].cdi()?,
        })
    }

    /// This shard's `k` worst targets by the given category's indicator,
    /// descending, ties broken by target order. The per-shard half of the
    /// service's top-K (merged across shards in [`crate::topk`]).
    pub fn top_k(&self, k: usize, category: Category) -> Result<Vec<(Target, f64)>> {
        let k = k.min(self.targets.len());
        // One pass, keeping the `k` best seen in a heap whose top is the
        // worst-ranked of them.
        let mut kept = BinaryHeap::with_capacity(k);
        for (&target, accs) in &self.targets {
            let row = Reverse(Ranked { score: accs[category.index()].cdi()?, target });
            if kept.len() < k {
                kept.push(row);
            } else if let Some(mut worst) = kept.peek_mut() {
                if row < *worst {
                    *worst = row;
                }
            }
        }
        Ok(kept.into_sorted_vec().into_iter().map(|Reverse(r)| (r.target, r.score)).collect())
    }

    /// A [`VmCdi`] row for one VM target this shard tracks, in the exact
    /// shape `aggregate` (Formula 4) consumes. Untracked VMs get an
    /// all-zero row — a VM with no events has zero damage, matching the
    /// batch path which computes over an empty span list.
    pub fn vm_row(&self, vm: u64) -> Result<VmCdi> {
        let service_time = self.watermark - self.period_start;
        if service_time <= 0 {
            return Err(CdiError::degenerate("no elapsed service time yet"));
        }
        let [unavailability, performance, control_plane] =
            self.damage(Target::Vm(vm)).map(|d| damage_ratio(d, service_time));
        Ok(VmCdi { vm, service_time, unavailability, performance, control_plane })
    }

    /// The damage (µ-weight·ms) frozen so far for one target, per category
    /// in [`Category::ALL`] order; all zero for a target never seen. Tick
    /// tables difference this across watermarks.
    pub fn damage(&self, target: Target) -> [u64; 3] {
        match self.targets.get(&target) {
            Some(accs) => accs.each_ref().map(CdiAccumulator::damage_integral),
            None => [0; 3],
        }
    }

    /// Does this shard track the target?
    pub fn contains(&self, target: Target) -> bool {
        self.targets.contains_key(&target)
    }

    /// Snapshot every target, sorted by target for stable output.
    pub fn snapshot(&self) -> Vec<TargetSnapshot> {
        let mut out: Vec<TargetSnapshot> =
            self.targets.iter().map(|(&target, accs)| snapshot_of(target, accs)).collect();
        out.sort_by_key(|a| a.target);
        out
    }

    /// Insert a revived target (restore and delta-replay paths). Validates
    /// each accumulator snapshot and requires all three to agree on the
    /// watermark, which then must match the shard's.
    fn restore_target(&mut self, snap: &TargetSnapshot) -> Result<()> {
        let u = CdiAccumulator::restore(snap.unavailability.clone())?;
        let p = CdiAccumulator::restore(snap.performance.clone())?;
        let c = CdiAccumulator::restore(snap.control_plane.clone())?;
        for acc in [&u, &p, &c] {
            if acc.watermark() != self.watermark {
                return Err(CdiError::invalid(format!(
                    "snapshot of {} is at watermark {}, shard at {}",
                    snap.target,
                    acc.watermark(),
                    self.watermark
                )));
            }
        }
        // bound: one entry per target in the restored snapshot, same fleet-sized bound as apply
        self.targets.insert(snap.target, [u, p, c]);
        Ok(())
    }

    /// Close the current durability epoch and open the next one: returns
    /// the [`ShardDelta`] covering everything since the last cut — full
    /// snapshots of every span-dirtied target and the watermark reached.
    pub(crate) fn take_delta(&mut self) -> ShardDelta {
        let mut changed: Vec<TargetSnapshot> = self
            .dirty
            .drain()
            .filter_map(|t| self.targets.get(&t).map(|accs| snapshot_of(t, accs)))
            .collect();
        changed.sort_by_key(|s| s.target);
        let delta = ShardDelta {
            from_watermark: self.epoch_start,
            to_watermark: self.watermark,
            rejected: self.rejected,
            changed,
        };
        self.epoch_start = self.watermark;
        delta
    }

    /// Close the current durability epoch like [`ShardState::take_delta`],
    /// but describe the *whole* state, as one delta cut from an empty
    /// shard: the durable base image. Applying it to a fresh state jumps
    /// to the watermark and restores every target.
    pub(crate) fn take_base(&mut self) -> ShardDelta {
        self.dirty.clear();
        self.epoch_start = self.watermark;
        ShardDelta {
            from_watermark: self.period_start,
            to_watermark: self.watermark,
            rejected: self.rejected,
            changed: self.snapshot(),
        }
    }

    /// Apply one durability image on top of this state (respawn path):
    /// advance untouched targets to the epoch's closing watermark, then
    /// replace every dirtied target with its epoch-close snapshot.
    /// Validation failures count as rejections rather than propagating:
    /// supervision must always produce a serving shard.
    pub(crate) fn apply_delta(&mut self, d: &ShardDelta) {
        self.advance_all(d.to_watermark);
        // Authoritative counter, set after the advance so replay-side
        // rejections (impossible for a worker-written delta) cannot skew
        // it; restore failures below still surface as bumps on top.
        self.rejected = d.rejected;
        for snap in &d.changed {
            if self.restore_target(snap).is_err() {
                self.rejected += 1;
            }
        }
        self.epoch_start = self.watermark;
    }
}

fn snapshot_of(target: Target, accs: &[CdiAccumulator; 3]) -> TargetSnapshot {
    TargetSnapshot {
        target,
        unavailability: accs[0].snapshot(),
        performance: accs[1].snapshot(),
        control_plane: accs[2].snapshot(),
    }
}

fn relock<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// A running shard: queue, worker thread, the shared state they drain
/// into, and the image chain + journal supervision rebuilds it from.
#[derive(Debug)]
pub struct Shard {
    /// The ingest queue producers push to.
    pub queue: Arc<BoundedQueue<ShardMsg>>,
    state: Arc<TrackedMutex<ShardState>>,
    /// Messages accepted into the queue (producers bump this on accept).
    enqueued: Arc<AtomicU64>,
    /// Messages applied by the worker, with a condvar for flush waiters.
    applied: Arc<(TrackedMutex<u64>, TrackedCondvar)>,
    /// Image chain + journal for crash recovery.
    durable: Arc<Durable>,
    /// False between a crash and the respawn that heals it.
    alive: Arc<AtomicBool>,
    /// Crash messages injected (bumped *before* the push), matched by
    /// [`Shard::crashes_landed`] — equal counts mean no crash is queued or
    /// mid-pop, which is what a fence drain must prove.
    kills: Arc<AtomicU64>,
    /// Crash messages the worker has fully processed (bumped *after* the
    /// state wipe and the dead flag).
    crashes_landed: Arc<AtomicU64>,
    worker: TrackedMutex<Option<JoinHandle<()>>>,
    period_start: Timestamp,
    checkpoint_every: usize,
    /// This shard's index in the pool, for lifecycle events.
    index: usize,
    /// Shared service counters + event log (respawns are recorded here).
    metrics: Arc<ServiceMetrics>,
}

/// Everything the worker loop needs, cloned out of the [`Shard`].
struct WorkerCtx {
    queue: Arc<BoundedQueue<ShardMsg>>,
    state: Arc<TrackedMutex<ShardState>>,
    applied: Arc<(TrackedMutex<u64>, TrackedCondvar)>,
    durable: Arc<Durable>,
    alive: Arc<AtomicBool>,
    crashes_landed: Arc<AtomicU64>,
    period_start: Timestamp,
    checkpoint_every: usize,
}

fn worker_loop(ctx: WorkerCtx) {
    // Journaled-but-unchained messages survive a respawn; start the epoch
    // countdown where the journal left off so epochs stay bounded.
    let mut since_epoch = relock(ctx.durable.journal.lock()).msgs;
    // bound: at most WORKER_BATCH items live in the batch buffer
    let mut batch: Vec<ShardMsg> = Vec::with_capacity(WORKER_BATCH);
    while ctx.queue.pop_batch(WORKER_BATCH, |m| matches!(m, ShardMsg::Crash), &mut batch) {
        // A `Crash`, if present, terminated the batch — it is the last
        // element and everything before it is a plain prefix to apply.
        let crashed = matches!(batch.last(), Some(ShardMsg::Crash));
        let applied_n = if crashed { batch.len() - 1 } else { batch.len() };
        if applied_n > 0 {
            {
                // Journal first: a message is durable before it is live, so
                // a crash mid-batch can only over-replay (idempotent via the
                // epoch cut), never lose an applied message.
                // bound: reset every epoch cut below
                let mut journal = relock(ctx.durable.journal.lock());
                for msg in &batch[..applied_n] {
                    msg.put(&mut journal.bytes);
                }
                journal.msgs += applied_n as u64;
            }
            {
                let mut st = relock(ctx.state.lock());
                for msg in batch.drain(..applied_n) {
                    st.apply(msg);
                }
            }
            {
                let (count, cv) = &*ctx.applied;
                *relock(count.lock()) += applied_n as u64; // lock: applied
                cv.notify_all();
            }
            since_epoch += applied_n as u64;
            if since_epoch >= ctx.checkpoint_every as u64 {
                cut_epoch(&ctx.durable, &ctx.state, false);
                since_epoch = 0;
            }
        }
        if crashed {
            // Simulated crash: the live heap is lost. Mark dead *before*
            // waking flush waiters so they observe the death and respawn.
            *relock(ctx.state.lock()) = ShardState::new(ctx.period_start);
            ctx.alive.store(false, Ordering::SeqCst);
            let (_, cv) = &*ctx.applied;
            cv.notify_all();
            // Landed last: once counts match, the wipe is fully visible.
            ctx.crashes_landed.fetch_add(1, Ordering::SeqCst);
            return;
        }
        batch.clear();
    }
}

/// Cut one durability epoch: move everything the journal covers into the
/// image chain as one more delta — or, when `collapse` is asked for or the
/// chain has reached [`MAX_DELTA_CHAIN`], replace the whole chain with a
/// fresh full base, so respawn replay and image size stay bounded — then
/// reset the journal. Locks nest checkpoint → journal → state, per the
/// declared chain, so the images, journal, and epoch tracking move
/// atomically.
fn cut_epoch(durable: &Durable, state: &TrackedMutex<ShardState>, collapse: bool) {
    let mut images = relock(durable.images.lock()); // lock: checkpoint
    let mut journal = relock(durable.journal.lock()); // lock: journal
    {
        let mut st = relock(state.lock()); // lock: state
        if collapse || images.len() >= MAX_DELTA_CHAIN {
            images.clear();
            images.push(cdipack::encode(&st.take_base()));
        } else {
            images.push(cdipack::encode(&st.take_delta()));
        }
    }
    *journal = JournalBuf::default();
}

impl Shard {
    /// Spawn a shard worker over an empty state.
    pub fn spawn(period_start: Timestamp, queue_capacity: usize) -> Shard {
        Self::spawn_with_state(ShardState::new(period_start), queue_capacity)
    }

    /// Spawn a shard worker over pre-built (restored) state, with default
    /// supervision plumbing (standalone/test use).
    pub fn spawn_with_state(state: ShardState, queue_capacity: usize) -> Shard {
        Self::spawn_supervised(
            state,
            queue_capacity,
            DEFAULT_CHECKPOINT_EVERY,
            0,
            Arc::new(ServiceMetrics::default()),
        )
    }

    /// Spawn a shard worker over pre-built state, wired into the service's
    /// shared metrics/event log. The base image is cut from `state`
    /// itself, so a crash before the first periodic epoch cut still
    /// recovers everything the shard started with.
    pub fn spawn_supervised(
        mut state: ShardState,
        queue_capacity: usize,
        checkpoint_every: usize,
        index: usize,
        metrics: Arc<ServiceMetrics>,
    ) -> Shard {
        let period_start = state.period_start;
        let base = cdipack::encode(&state.take_base());
        let durable = Arc::new(Durable {
            images: TrackedMutex::new("checkpoint", vec![base]),
            journal: TrackedMutex::new("journal", JournalBuf::default()),
        });
        let shard = Shard {
            queue: Arc::new(BoundedQueue::new(queue_capacity)),
            state: Arc::new(TrackedMutex::new("state", state)),
            enqueued: Arc::new(AtomicU64::new(0)),
            applied: Arc::new((TrackedMutex::new("applied", 0u64), TrackedCondvar::new())),
            durable,
            alive: Arc::new(AtomicBool::new(true)),
            kills: Arc::new(AtomicU64::new(0)),
            crashes_landed: Arc::new(AtomicU64::new(0)),
            worker: TrackedMutex::new("worker", None),
            period_start,
            checkpoint_every: checkpoint_every.max(1),
            index,
            metrics,
        };
        *relock(shard.worker.lock()) = Some(shard.spawn_worker());
        shard
    }

    fn spawn_worker(&self) -> JoinHandle<()> {
        let ctx = WorkerCtx {
            queue: Arc::clone(&self.queue),
            state: Arc::clone(&self.state),
            applied: Arc::clone(&self.applied),
            durable: Arc::clone(&self.durable),
            alive: Arc::clone(&self.alive),
            crashes_landed: Arc::clone(&self.crashes_landed),
            period_start: self.period_start,
            checkpoint_every: self.checkpoint_every,
        };
        std::thread::spawn(move || worker_loop(ctx))
    }

    /// Record that a message was accepted into the queue. Producers must
    /// call this exactly once per accepted push so [`Shard::flush`] knows
    /// what to wait for.
    pub fn note_enqueued(&self) {
        self.enqueued.fetch_add(1, Ordering::SeqCst);
    }

    /// Bulk form of [`Shard::note_enqueued`] for group pushes: one
    /// counter update per accepted [`crate::queue::BoundedQueue::push_many`]
    /// group instead of one per message.
    pub fn note_enqueued_many(&self, n: u64) {
        self.enqueued.fetch_add(n, Ordering::SeqCst);
    }

    /// Clone of the accepted-message counter, for producers that must
    /// record an accept *after* releasing the pool lock (the watermark
    /// broadcast hoists its blocking pushes out of the guard).
    pub(crate) fn enqueued_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.enqueued)
    }

    /// Is the worker thread alive (i.e. not between a crash and its
    /// respawn)?
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Inject a crash: the worker wipes its live state and exits when the
    /// `Crash` message reaches the front of its queue. Not counted as an
    /// enqueued message — it will never be "applied".
    pub fn kill(&self) {
        // Counted before the push: a drain that sees matching kill/landed
        // counts *and* an empty queue knows no crash is still in flight.
        self.kills.fetch_add(1, Ordering::SeqCst);
        self.queue.push_blocking(ShardMsg::Crash);
    }

    /// Supervision: if the worker is dead, rebuild the state from the
    /// durable image chain plus journal replay and spawn a fresh worker
    /// over the same queue. Returns `true` if a respawn happened.
    pub fn respawn_if_dead(&self) -> bool {
        if self.alive.load(Ordering::SeqCst) {
            return false;
        }
        let mut worker = relock(self.worker.lock());
        // Double-check under the lock: a racing supervisor may have
        // already healed this shard.
        if self.alive.load(Ordering::SeqCst) {
            return false;
        }
        if let Some(h) = worker.take() {
            // lint-allow(R7): respawn joins the dead worker under the worker mutex: the worker thread never takes its own handle mutex, and holding it is what prevents two supervisors from double-spawning
            let _ = h.join();
        }
        // Rebuild from bytes: every image in the chain, then everything
        // journaled since the last cut. Everything is cloned out so decode
        // and replay hold no durable lock.
        let images = relock(self.durable.images.lock()).clone();
        let (journal_bytes, journal_msgs) = {
            let journal = relock(self.durable.journal.lock());
            (journal.bytes.as_slice().to_vec(), journal.msgs)
        };
        // The base is the state a never-crashed shard would also hold; the
        // recovery cost this measures is everything replayed *on top*.
        let replayed_bytes = journal_bytes.len() as u64
            + images.iter().skip(1).map(|bytes| bytes.len() as u64).sum::<u64>();
        // Decode is total: a corrupt image yields a degraded-but-serving
        // shard plus bumped rejection counts, never a dead pool. Failures
        // are counted here and added after the replay, because every good
        // delta overwrites the state's counter with its own.
        let mut corrupt = 0u64;
        let mut st = ShardState::new(self.period_start);
        for bytes in &images {
            match cdipack::decode::<ShardDelta>(bytes) {
                Ok(delta) => st.apply_delta(&delta),
                Err(_) => corrupt += 1,
            }
        }
        let mut records = PackReader::new(&journal_bytes);
        while !records.is_done() {
            match ShardMsg::take(&mut records) {
                Ok(msg) => st.apply(msg),
                Err(_) => {
                    // A torn journal tail: keep what decoded cleanly.
                    corrupt += 1;
                    break;
                }
            }
        }
        st.rejected += corrupt;
        let restored_targets = st.target_count();
        *relock(self.state.lock()) = st;
        // Publish the healed state before the new worker starts draining.
        self.alive.store(true, Ordering::SeqCst);
        *worker = Some(self.spawn_worker());
        ServiceMetrics::bump(&self.metrics.shard_respawns);
        self.metrics.events.record(LifecycleEvent::ShardRespawned {
            shard: self.index,
            restored_targets,
            replayed_msgs: journal_msgs,
            replayed_bytes,
        });
        true
    }

    /// Sizes of this shard's durable image — how many bytes a respawn
    /// right now would decode (base) and replay (deltas + journal).
    pub fn durable_stats(&self) -> DurableStats {
        let images = relock(self.durable.images.lock()); // lock: checkpoint
        let journal = relock(self.durable.journal.lock()); // lock: journal
        let len = |bytes: &Vec<u8>| bytes.len() as u64;
        DurableStats {
            base_bytes: images.first().map_or(0, len),
            delta_bytes: images.iter().skip(1).map(len).sum(),
            delta_count: images.len().saturating_sub(1),
            journal_bytes: journal.bytes.len() as u64,
            journal_msgs: journal.msgs,
        }
    }

    /// Collapse the durable image into a fresh full base: clear the delta
    /// chain and the journal, leaving a respawn nothing to replay.
    ///
    /// **Quiesced shards only.** The worker journals a message *before*
    /// applying it, so compacting while messages are in flight could cut a
    /// base that misses a message whose journal record was just discarded.
    /// Call only after [`Shard::flush`] with producers paused — e.g. under
    /// a lifecycle fence, or from a test that owns the whole stream.
    pub fn compact_durable(&self) {
        cut_epoch(&self.durable, &self.state, true);
    }

    /// Block until every message accepted so far has been applied,
    /// respawning the worker if a crash interrupts the drain.
    pub fn flush(&self) {
        let goal = self.enqueued.load(Ordering::SeqCst);
        loop {
            self.respawn_if_dead();
            let (count, cv) = &*self.applied;
            let mut done = relock(count.lock()); // lock: applied
            while *done < goal {
                if !self.alive.load(Ordering::SeqCst) {
                    break;
                }
                done = relock(cv.wait(done));
            }
            if *done >= goal {
                return;
            }
        }
    }

    /// Drain this shard completely for a lifecycle fence: every accepted
    /// message applied, the queue empty, no crash queued *or mid-pop*, and
    /// the worker alive. Only safe to rely on once producers are fenced
    /// (nothing new can arrive); returns with the state at the fence
    /// watermark, ready to be split, merged, or rebuilt.
    ///
    /// The crash-counter check closes a TOCTOU hole `flush` alone leaves
    /// open: a `Crash` is never "applied", so flush can return while one
    /// is still queued — or worse, popped but not yet finished wiping the
    /// state. Matching kill/landed counts prove every injected crash has
    /// fully landed, after which `respawn_if_dead` heals the last one.
    pub fn drain_to_fence(&self) {
        loop {
            self.respawn_if_dead();
            self.flush();
            if self.queue.is_empty()
                && self.kills.load(Ordering::SeqCst)
                    == self.crashes_landed.load(Ordering::SeqCst)
                && self.is_alive()
            {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Run `f` against the shard state under its lock.
    pub fn with_state<R>(&self, f: impl FnOnce(&ShardState) -> R) -> R {
        let st = relock(self.state.lock());
        f(&st)
    }

    /// Close the queue and join the worker (drains remaining messages; a
    /// dead worker is respawned first so nothing queued is abandoned).
    pub fn shutdown(&self) {
        self.respawn_if_dead();
        self.queue.close();
        if let Some(h) = relock(self.worker.lock()).take() {
            // A worker that panicked already poisoned nothing we read past
            // this point; ignore the join error rather than propagating a
            // panic through shutdown.
            // lint-allow(R7): shutdown joins the worker under the worker mutex after closing the queue: the worker is draining to exit and never takes this mutex, same double-spawn argument as respawn
            let _ = h.join();
        }
    }
}

/// Default number of applied messages between durability epoch cuts.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 512;

/// Images (the base plus its deltas) in the chain at which the next
/// epoch cut collapses it into a fresh full base — bounds both respawn
/// replay length and image size.
pub const MAX_DELTA_CHAIN: usize = 8;

/// Most messages the worker drains per queue wake-up: one journal lock,
/// one state lock, and one flush notification per batch instead of per
/// message.
const WORKER_BATCH: usize = 128;

impl Drop for Shard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdi_core::time::minutes;

    fn span(s: i64, e: i64, w: f64, cat: Category) -> EventSpan {
        EventSpan::new("x", cat, minutes(s), minutes(e), w)
    }

    #[test]
    fn categories_accumulate_independently() {
        let mut st = ShardState::new(0);
        st.apply(ShardMsg::Span {
            target: Target::Vm(1),
            span: span(0, 10, 1.0, Category::Unavailability),
        });
        st.apply(ShardMsg::Span {
            target: Target::Vm(1),
            span: span(0, 20, 0.5, Category::Performance),
        });
        st.apply(ShardMsg::Watermark(minutes(100)));
        let p = st.point(Target::Vm(1)).unwrap().unwrap();
        assert_eq!((p.unavailability, p.performance, p.control_plane), (0.1, 0.1, 0.0));
        assert!(st.point(Target::Vm(2)).is_none());
    }

    #[test]
    fn late_first_sight_fast_forwards_the_accumulator() {
        let mut st = ShardState::new(0);
        st.apply(ShardMsg::Watermark(minutes(50)));
        // First delivery for this target arrives mid-period.
        st.apply(ShardMsg::Span {
            target: Target::Vm(9),
            span: span(50, 60, 1.0, Category::Unavailability),
        });
        st.apply(ShardMsg::Watermark(minutes(100)));
        let p = st.point(Target::Vm(9)).unwrap().unwrap();
        // 10 damaged minutes over the full 100-minute elapsed period.
        assert_eq!(p.unavailability, 0.1, "{p:?}");
    }

    #[test]
    fn shard_top_k_sorts_descending_with_stable_ties() {
        let mut st = ShardState::new(0);
        for (vm, mins) in [(1u64, 30i64), (2, 10), (3, 20)] {
            st.apply(ShardMsg::Span {
                target: Target::Vm(vm),
                span: span(0, mins, 1.0, Category::Unavailability),
            });
        }
        st.apply(ShardMsg::Watermark(minutes(100)));
        let top = st.top_k(2, Category::Unavailability).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, Target::Vm(1));
        assert_eq!(top[1].0, Target::Vm(3));
    }

    #[test]
    fn worker_applies_and_flush_waits() {
        let shard = Shard::spawn(0, 64);
        for i in 0..10 {
            shard.queue.push_blocking(ShardMsg::Span {
                target: Target::Vm(i % 3),
                span: span(0, 10, 0.5, Category::Performance),
            });
            shard.note_enqueued();
        }
        shard.queue.push_blocking(ShardMsg::Watermark(minutes(60)));
        shard.note_enqueued();
        shard.flush();
        shard.with_state(|st| {
            assert_eq!(st.target_count(), 3);
            assert_eq!(st.watermark(), minutes(60));
            assert_eq!(st.rejected(), 0);
        });
    }

    #[test]
    fn snapshot_round_trips_through_from_parts() {
        let mut st = ShardState::new(0);
        st.apply(ShardMsg::Span {
            target: Target::Vm(4),
            span: span(0, 30, 0.5, Category::Performance),
        });
        st.apply(ShardMsg::Watermark(minutes(10)));
        let snaps = st.snapshot();
        assert_eq!(snaps.len(), 1);

        let mut revived = ShardState::from_parts(0, minutes(10), 0, &snaps).unwrap();
        revived.apply(ShardMsg::Watermark(minutes(40)));
        st.apply(ShardMsg::Watermark(minutes(40)));
        assert_eq!(st.snapshot(), revived.snapshot());

        // Watermark mismatch is rejected.
        assert!(ShardState::from_parts(0, 0, 0, &snaps).is_err());
    }

    /// Deterministic seeded kill/respawn: a shard crashed at a fixed point
    /// in a fixed stream equals one that never crashed. The seed fixes the
    /// stream shape and the kill position, so every run exercises the same
    /// checkpoint/journal split; weights sit on no grid and every epoch
    /// spans several watermark advances, which a delta replays as one.
    #[test]
    fn seeded_kill_respawn_is_lossless() {
        // SplitMix64, the workspace's deterministic generator idiom.
        fn splitmix(z: &mut u64) -> u64 {
            *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = *z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }
        let mut seed = 0xC0FFEE_u64;
        let total = 200usize;
        let kill_at = (splitmix(&mut seed) % 150 + 25) as usize;

        let mut msgs = Vec::new();
        let mut mark = 0i64;
        for i in 0..total {
            let r = splitmix(&mut seed);
            let vm = r % 7;
            let start = mark + (r >> 8) as i64 % 5;
            let len = 1 + (r >> 16) as i64 % 10;
            let cat = match r % 3 {
                0 => Category::Unavailability,
                1 => Category::Performance,
                _ => Category::ControlPlane,
            };
            msgs.push(ShardMsg::Span {
                target: Target::Vm(vm),
                span: span(start, start + len, ((r >> 24) % 997 + 1) as f64 / 997.0, cat),
            });
            if i % 5 == 4 {
                mark += 7;
                msgs.push(ShardMsg::Watermark(minutes(mark)));
            }
        }
        msgs.push(ShardMsg::Watermark(minutes(mark + 60)));

        // Small checkpoint interval so the kill lands between checkpoints
        // and the journal replay actually carries state.
        let victim = Shard::spawn_supervised(
            ShardState::new(0),
            1024,
            16,
            0,
            Arc::new(ServiceMetrics::default()),
        );
        let control = Shard::spawn(0, 1024);
        for (i, msg) in msgs.iter().enumerate() {
            if i == kill_at {
                victim.kill();
            }
            for shard in [&victim, &control] {
                shard.queue.push_blocking(msg.clone());
                shard.note_enqueued();
            }
        }
        victim.flush();
        control.flush();
        assert!(victim.is_alive(), "flush must have respawned the victim");

        let a = victim.with_state(|st| (st.snapshot(), st.watermark(), st.rejected()));
        let b = control.with_state(|st| (st.snapshot(), st.watermark(), st.rejected()));
        assert_eq!(a.0, b.0, "accumulator state must survive the crash exactly");
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    /// A crash with an idle supervisor leaves the shard dead (degraded but
    /// not down); the first supervision touch heals it from checkpoint +
    /// journal.
    #[test]
    fn explicit_respawn_restores_from_checkpoint_and_journal() {
        let metrics = Arc::new(ServiceMetrics::default());
        let shard = Shard::spawn_supervised(
            ShardState::new(0),
            64,
            4, // checkpoint every 4 messages
            3,
            Arc::clone(&metrics),
        );
        for i in 0..6u64 {
            shard.queue.push_blocking(ShardMsg::Span {
                target: Target::Vm(i % 2),
                span: span(0, 10 + i as i64, 0.5, Category::Performance),
            });
            shard.note_enqueued();
        }
        shard.kill();
        // Wait for the crash to land: the worker wipes state and dies.
        while shard.is_alive() {
            std::thread::yield_now();
        }
        assert_eq!(shard.with_state(|st| st.target_count()), 0, "live state lost");

        assert!(shard.respawn_if_dead());
        assert!(!shard.respawn_if_dead(), "second supervisor sees a healed shard");
        shard.flush();
        assert_eq!(shard.with_state(|st| st.target_count()), 2);
        assert_eq!(metrics.shard_respawns.load(Ordering::Relaxed), 1);
        let events = metrics.events.snapshot();
        assert!(
            events.iter().any(|e| matches!(
                e,
                LifecycleEvent::ShardRespawned { shard: 3, .. }
            )),
            "respawn must be recorded in the event log: {events:?}"
        );
    }

    /// A corrupt image must stay on the books: the base fails to decode,
    /// the good delta after it replays (and carries its own authoritative
    /// rejection count of zero), and the respawned shard still reports the
    /// failure while serving what it could recover.
    #[test]
    fn respawn_keeps_the_evidence_of_a_corrupt_image() {
        let shard = Shard::spawn_supervised(
            ShardState::new(0),
            64,
            4, // cut an epoch every 4 messages
            0,
            Arc::new(ServiceMetrics::default()),
        );
        for vm in 0..4u64 {
            shard.queue.push_blocking(ShardMsg::Span {
                target: Target::Vm(vm),
                span: span(0, 10, 0.5, Category::Performance),
            });
            shard.note_enqueued();
        }
        shard.flush();
        // The cut follows the flush notification; wait for it to land.
        while shard.durable_stats().delta_count == 0 {
            std::thread::yield_now();
        }
        shard.kill();
        while shard.is_alive() {
            std::thread::yield_now();
        }
        relock(shard.durable.images.lock())[0][0] ^= 0xFF;

        assert!(shard.respawn_if_dead());
        shard.queue.push_blocking(ShardMsg::Watermark(minutes(60)));
        shard.note_enqueued();
        shard.flush();
        shard.with_state(|st| {
            assert!(st.rejected() >= 1, "decode failure erased: rejected = {}", st.rejected());
            assert_eq!(st.target_count(), 4, "the good delta still restores its targets");
            assert_eq!(st.watermark(), minutes(60), "the respawned shard serves");
        });
    }

    /// The incremental-durability guarantee, measured: after a compaction,
    /// touching one target and crashing must replay O(that change) bytes,
    /// not O(the whole 400-target base image).
    #[test]
    fn respawn_replays_delta_not_full_state() {
        let metrics = Arc::new(ServiceMetrics::default());
        // Epoch interval far above the stream length: the touched span
        // stays in the journal, which is exactly what gets replayed.
        let shard = Shard::spawn_supervised(
            ShardState::new(0),
            2048,
            1_000_000,
            7,
            Arc::clone(&metrics),
        );
        for vm in 0..400u64 {
            shard.queue.push_blocking(ShardMsg::Span {
                target: Target::Vm(vm),
                span: span(0, 10, 0.5, Category::Performance),
            });
            shard.note_enqueued();
        }
        shard.queue.push_blocking(ShardMsg::Watermark(minutes(60)));
        shard.note_enqueued();
        shard.flush();
        // Deterministic full base (batching makes periodic cut points
        // timing-dependent); the stream is quiesced by the flush above.
        shard.compact_durable();
        let full = shard.durable_stats();
        assert!(full.base_bytes > 0);
        assert_eq!(full.delta_count, 0);
        assert_eq!(full.journal_msgs, 0);

        shard.queue.push_blocking(ShardMsg::Span {
            target: Target::Vm(3),
            span: span(20, 30, 0.5, Category::Performance),
        });
        shard.note_enqueued();
        shard.flush();
        shard.kill();
        while shard.is_alive() {
            std::thread::yield_now();
        }
        assert!(shard.respawn_if_dead());

        let events = metrics.events.snapshot();
        let replayed = events
            .iter()
            .find_map(|e| match e {
                LifecycleEvent::ShardRespawned { shard: 7, replayed_bytes, .. } => {
                    Some(*replayed_bytes)
                }
                _ => None,
            })
            .expect("respawn must be recorded");
        assert!(
            replayed.saturating_mul(10) < full.base_bytes,
            "replayed {replayed} bytes is not O(delta) vs base {} bytes",
            full.base_bytes
        );
        shard.flush();
        assert_eq!(shard.with_state(|st| st.target_count()), 400);
    }
}
