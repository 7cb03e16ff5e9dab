//! The SLO-driven chaos drill for `cdi-serve` (`experiments drill`).
//!
//! Four probes, all recorded into `BENCH_PR6.json`:
//!
//! - **SLO ramp**: producer count doubles (1, 2, 4, 8, 16) against a
//!   fixed pool until a declared SLO breaks — p99 ingest admission
//!   latency (the time one `ingest` call spends blocked on admission and
//!   queue push) or watermark staleness (coordinator watermark minus the
//!   minimum shard-applied watermark, i.e. how far the slowest shard lags
//!   the stream in simulated time).
//! - **Chaos agreement**: the correctness gate. A run that is grown
//!   3 → 6 shards, has a seeded-random shard killed, is rolled
//!   shard-by-shard, and is shrunk 6 → 2 — all while three producers
//!   keep writing — must equal an uninterrupted fixed-shard run's
//!   per-target CDI on every indicator (damage is an integer sum, so the
//!   delta is exactly zero or the protocol lost a span).
//! - **Resize overhead**: wall-clock cost of the same ingest workload
//!   with live resizes firing mid-stream vs. an undisturbed run — the
//!   price of the fence protocol under sustained load.
//! - **Autoscale drill**: heavy and light load waves against
//!   [`AutoScalerPolicy`], resizing on each wave's queue-depth
//!   high-water mark — records the shard-count trajectory.
//!
//! The drill is seeded: the killed shard, span weights, and categories
//! are all functions of `--seed`. Wall-clock numbers vary run to run;
//! the agreement gate does not.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use cdi_core::event::{Category, EventSpan, Target};
use cdi_serve::{AutoScalerPolicy, BackpressurePolicy, CdiService, ServeConfig};
use serde::Serialize;

const MIN: i64 = 60_000;
/// Distinct VM targets in the synthetic stream.
const TARGETS: u64 = 256;

/// SLO: p99 ingest admission latency, microseconds.
const SLO_P99_INGEST_US: f64 = 500.0;
/// SLO: watermark staleness, simulated milliseconds.
const SLO_STALENESS_MS: i64 = 5 * MIN;

/// SplitMix64 — the drill's only randomness, fully determined by the seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The span target `t` receives in wave `c`: weight and category are a
/// hash of `(seed, t, c)`, boundaries are the wave's minute window.
fn wave_span(seed: u64, t: u64, c: i64) -> EventSpan {
    let mut h = seed ^ (t << 32) ^ c as u64;
    let r = splitmix64(&mut h);
    let cat = match r % 3 {
        0 => Category::Unavailability,
        1 => Category::Performance,
        _ => Category::ControlPlane,
    };
    let weight = 0.1 + ((r >> 8) % 9) as f64 / 10.0;
    EventSpan::new("drill_span", cat, c * MIN, (c + 1) * MIN, weight)
}

fn service(shards: usize, queue_capacity: usize) -> CdiService {
    let cfg = ServeConfig {
        shards,
        queue_capacity,
        policy: BackpressurePolicy::Block,
        period_start: 0,
        ..ServeConfig::default()
    };
    CdiService::new(cfg).unwrap_or_else(|e| unreachable!("static config is valid: {e}"))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One step of the producer ramp.
#[derive(Debug, Clone, Serialize)]
pub struct SloRampStep {
    /// Concurrent producer threads this step.
    pub producers: usize,
    /// Span deliveries this step.
    pub spans: u64,
    /// Median ingest admission latency, microseconds.
    pub p50_ingest_us: f64,
    /// 99th-percentile ingest admission latency, microseconds.
    pub p99_ingest_us: f64,
    /// Worst watermark staleness observed mid-load, simulated ms.
    pub staleness_ms: i64,
    /// Queue-depth high-water mark across the pool for this step.
    pub queue_hwm: u64,
    /// Did this step break an SLO?
    pub breached: bool,
}

/// The producer ramp: load doubles until an SLO breaks.
#[derive(Debug, Clone, Serialize)]
pub struct SloRamp {
    /// Declared p99 ingest-latency SLO, microseconds.
    pub slo_p99_ingest_us: f64,
    /// Declared watermark-staleness SLO, simulated ms.
    pub slo_staleness_ms: i64,
    /// Shards in the fixed pool under test.
    pub shards: usize,
    /// One record per ramp step, in order.
    pub steps: Vec<SloRampStep>,
    /// Producer count of the first breaching step (`None` if the ramp
    /// completed inside SLO).
    pub breach_producers: Option<usize>,
}

/// Run one ramp step: `producers` threads deliver `cycles` waves over
/// disjoint target slices while the coordinator advances the watermark
/// and samples staleness.
fn ramp_step(producers: usize, cycles: i64, shards: usize) -> SloRampStep {
    let svc = Arc::new(service(shards, 128));
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(cycles as usize * 32);
                for c in 0..cycles {
                    for t in (p as u64..TARGETS).step_by(producers) {
                        let span = wave_span(0, t, c);
                        let at = Instant::now();
                        svc.ingest(Target::Vm(t), span);
                        lat.push(at.elapsed().as_secs_f64() * 1e6);
                    }
                }
                lat
            })
        })
        .collect();

    // Coordinator: pace the watermark through the waves and watch how far
    // the slowest shard lags it while producers are writing.
    let mut staleness_ms = 0i64;
    let mut c = 0i64;
    while handles.iter().any(|h| !h.is_finished()) {
        if c < cycles {
            c += 1;
            let _ = svc.advance_watermark(c * MIN);
        }
        staleness_ms = staleness_ms.max(svc.watermark() - svc.min_applied_watermark());
        std::thread::yield_now();
    }
    let mut lat: Vec<f64> = handles.into_iter().flat_map(|h| h.join().unwrap_or_default()).collect();
    let _ = svc.advance_watermark(cycles * MIN);
    svc.flush();
    lat.sort_by(f64::total_cmp);
    let (p50, p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
    SloRampStep {
        producers,
        spans: lat.len() as u64,
        p50_ingest_us: p50,
        p99_ingest_us: p99,
        staleness_ms,
        queue_hwm: svc.take_queue_hwm(),
        breached: p99 > SLO_P99_INGEST_US || staleness_ms > SLO_STALENESS_MS,
    }
}

fn slo_ramp(quick: bool) -> SloRamp {
    let cycles: i64 = if quick { 30 } else { 150 };
    let shards = 4;
    let mut steps = Vec::new();
    let mut breach = None;
    for &producers in &[1usize, 2, 4, 8, 16] {
        let step = ramp_step(producers, cycles, shards);
        let breached = step.breached;
        steps.push(step);
        if breached {
            breach = Some(producers);
            break;
        }
    }
    SloRamp {
        slo_p99_ingest_us: SLO_P99_INGEST_US,
        slo_staleness_ms: SLO_STALENESS_MS,
        shards,
        steps,
        breach_producers: breach,
    }
}

/// The correctness gate: chaos run vs. uninterrupted run.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosAgreement {
    /// Span deliveries in each run.
    pub spans: u64,
    /// Concurrent producers in the chaos run.
    pub producers: usize,
    /// Shard counts the chaos run moved through.
    pub shard_path: Vec<usize>,
    /// Seeded-random shards killed mid-load.
    pub kills: u64,
    /// Dead shards respawned from checkpoint + journal.
    pub respawns: u64,
    /// Single-shard rolling restarts performed mid-load.
    pub restarts: u64,
    /// Largest per-target, per-indicator |chaos − reference| delta.
    pub max_cdi_delta: f64,
    /// Lock-order violations the runtime sanitizer recorded during the
    /// chaos run (debug builds only; the sanitizer compiles out of
    /// release benches, where this is always zero).
    pub lock_order_violations: usize,
    /// `max_cdi_delta == 0.0` and no lock-order violations.
    pub passed: bool,
}

fn chaos_agreement(seed: u64, quick: bool) -> ChaosAgreement {
    let cycles: i64 = if quick { 40 } else { 160 };
    let producers = 3;

    // Reference: sequential, fixed 3 shards, no lifecycle churn.
    let reference = service(3, 64);
    for c in 0..cycles {
        for t in 0..TARGETS {
            reference.ingest(Target::Vm(t), wave_span(seed, t, c));
        }
        let _ = reference.advance_watermark((c + 1) * MIN);
    }
    reference.flush();

    // Chaos: the same stream from 3 producers (each target exclusive to
    // one producer, so per-target order matches the reference) while the
    // coordinator grows, kills, rolls, and shrinks the pool mid-wave.
    let svc = Arc::new(service(3, 64));
    let barrier = Arc::new(Barrier::new(producers + 1));
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let svc = Arc::clone(&svc);
            let gate = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for c in 0..cycles {
                    gate.wait();
                    for t in (p as u64..TARGETS).step_by(producers) {
                        svc.ingest(Target::Vm(t), wave_span(seed, t, c));
                    }
                    gate.wait();
                }
            })
        })
        .collect();

    let mut rng = seed;
    let mut shard_path = vec![svc.shard_count()];
    for c in 0..cycles {
        barrier.wait();
        // Lifecycle ops land while the wave's producers are mid-delivery.
        if c == cycles / 4 {
            let out = svc.resize(6).unwrap_or_else(|e| unreachable!("grow: {e}"));
            shard_path.push(out.to_shards);
        }
        if c == cycles / 2 {
            let victim = (splitmix64(&mut rng) % svc.shard_count() as u64) as usize;
            let _ = svc.kill_shard(victim);
        }
        if c == 5 * cycles / 8 {
            svc.rolling_restart().unwrap_or_else(|e| unreachable!("roll: {e}"));
        }
        if c == 3 * cycles / 4 {
            let out = svc.resize(2).unwrap_or_else(|e| unreachable!("shrink: {e}"));
            shard_path.push(out.to_shards);
        }
        barrier.wait();
        let _ = svc.advance_watermark((c + 1) * MIN);
    }
    for h in handles {
        let _ = h.join();
    }
    svc.flush();

    let mut max_delta = 0.0f64;
    for t in 0..TARGETS {
        let a = reference.point(Target::Vm(t)).ok().flatten();
        let b = svc.point(Target::Vm(t)).ok().flatten();
        match (a, b) {
            (Some(a), Some(b)) => {
                max_delta = max_delta
                    .max((a.unavailability - b.unavailability).abs())
                    .max((a.performance - b.performance).abs())
                    .max((a.control_plane - b.control_plane).abs());
            }
            // A target tracked by one run but not the other is an
            // unconditional failure.
            _ => max_delta = f64::INFINITY,
        }
    }
    let m = svc.metrics();
    // In debug builds the whole drill ran under the lock-order sanitizer:
    // a chaos run that produced the right numbers through an undeclared
    // acquisition order still fails the gate.
    let lock_violations = cdi_serve::tracked::take_violations();
    for v in &lock_violations {
        eprintln!("chaos drill: {v}");
    }
    ChaosAgreement {
        spans: TARGETS * cycles as u64,
        producers,
        shard_path,
        kills: m.shard_kills,
        respawns: m.shard_respawns,
        restarts: m.shard_restarts,
        max_cdi_delta: max_delta,
        lock_order_violations: lock_violations.len(),
        passed: max_delta == 0.0 && lock_violations.is_empty(),
    }
}

/// Wall-clock cost of live resizes under sustained ingest.
#[derive(Debug, Clone, Serialize)]
pub struct ResizeOverhead {
    /// Span deliveries per run.
    pub spans: u64,
    /// Concurrent producers.
    pub producers: usize,
    /// Live resizes fired during the disturbed run.
    pub resizes: u64,
    /// Undisturbed run, seconds.
    pub steady_secs: f64,
    /// Same workload with resizes mid-stream, seconds.
    pub resized_secs: f64,
    /// `resized_secs / steady_secs` — the fence-protocol tax.
    pub overhead_ratio: f64,
}

/// Run the overhead workload once; `resize_between` alternates the pool
/// 4 → 8 → 4 → … once per ingest quartile when set.
fn overhead_run(cycles: i64, resize_between: bool) -> (f64, u64) {
    let producers = 4usize;
    let svc = Arc::new(service(4, 256));
    let total_spans = TARGETS * cycles as u64;
    let t = Instant::now();
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                for c in 0..cycles {
                    for t in (p as u64..TARGETS).step_by(producers) {
                        svc.ingest(Target::Vm(t), wave_span(1, t, c));
                    }
                }
            })
        })
        .collect();
    let mut resizes = 0u64;
    if resize_between {
        let mut next = total_spans / 8;
        let mut to = 8usize;
        while handles.iter().any(|h| !h.is_finished()) {
            if svc.spans_ingested() >= next {
                if svc.resize(to).is_ok() {
                    resizes += 1;
                }
                to = if to == 8 { 4 } else { 8 };
                next += total_spans / 8;
            }
            std::thread::yield_now();
        }
    }
    for h in handles {
        let _ = h.join();
    }
    let _ = svc.advance_watermark(cycles * MIN);
    svc.flush();
    (t.elapsed().as_secs_f64(), resizes)
}

fn resize_overhead(quick: bool) -> ResizeOverhead {
    let cycles: i64 = if quick { 60 } else { 300 };
    let iters = if quick { 1 } else { 3 };
    let mut steady = f64::INFINITY;
    let mut resized = f64::INFINITY;
    let mut resizes = 0;
    for _ in 0..iters {
        steady = steady.min(overhead_run(cycles, false).0);
        let (secs, n) = overhead_run(cycles, true);
        if secs < resized {
            resized = secs;
            resizes = n;
        }
    }
    ResizeOverhead {
        spans: TARGETS * cycles as u64,
        producers: 4,
        resizes,
        steady_secs: steady,
        resized_secs: resized,
        overhead_ratio: resized / steady,
    }
}

/// One autoscaler wave: load, observe, maybe resize.
#[derive(Debug, Clone, Serialize)]
pub struct AutoscaleStep {
    /// Wave index.
    pub wave: usize,
    /// `"heavy"` (8 bursty producers) or `"light"` (1 trickle producer).
    pub load: String,
    /// Queue-depth high-water mark the wave left behind.
    pub queue_hwm: u64,
    /// Shard count entering the wave.
    pub shards_before: usize,
    /// Shard count after the policy's verdict (same as before on hold).
    pub shards_after: usize,
}

/// The autoscale drill: the policy's shard-count trajectory under a
/// heavy-then-light load profile.
#[derive(Debug, Clone, Serialize)]
pub struct AutoscaleDrill {
    /// The policy under test.
    pub policy: AutoScalerPolicy,
    /// One record per wave.
    pub steps: Vec<AutoscaleStep>,
    /// Highest shard count reached.
    pub peak_shards: usize,
    /// Shard count after the final light wave.
    pub final_shards: usize,
}

fn autoscale_drill(quick: bool) -> AutoscaleDrill {
    let policy = AutoScalerPolicy {
        min_shards: 2,
        max_shards: 16,
        grow_depth: 32,
        shrink_depth: 8,
    };
    let cycles: i64 = if quick { 20 } else { 80 };
    let svc = Arc::new(service(2, 128));
    let mut steps = Vec::new();
    let mut peak = svc.shard_count();
    // Four heavy waves (burst from 8 producers) then four light ones
    // (single producer, partial target set).
    for wave in 0..8usize {
        let heavy = wave < 4;
        let producers = if heavy { 8 } else { 1 };
        let wave_targets = if heavy { TARGETS } else { TARGETS / 8 };
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    for c in 0..cycles {
                        for t in (p as u64..wave_targets).step_by(producers) {
                            svc.ingest(Target::Vm(t), wave_span(2, t, c));
                        }
                        if !heavy {
                            // Light load is a trickle, not a burst: let the
                            // queues drain between cycles so the high-water
                            // mark reflects the idle pool.
                            svc.flush();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        svc.flush();
        let hwm = svc.take_queue_hwm();
        let before = svc.shard_count();
        if let Some(to) = policy.decide(before, hwm) {
            let _ = svc.resize(to);
        }
        let after = svc.shard_count();
        peak = peak.max(after);
        steps.push(AutoscaleStep {
            wave,
            load: if heavy { "heavy".into() } else { "light".into() },
            queue_hwm: hwm,
            shards_before: before,
            shards_after: after,
        });
    }
    let final_shards = svc.shard_count();
    AutoscaleDrill { policy, steps, peak_shards: peak, final_shards }
}

/// The pass/fail summary at the head of `BENCH_PR6.json`.
#[derive(Debug, Clone, Serialize)]
pub struct DrillGate {
    /// What the gate demands.
    pub target: String,
    /// Largest per-target CDI delta of the chaos run.
    pub chaos_max_cdi_delta: f64,
    /// Producer count that first broke an SLO (`None` = ramp completed).
    pub slo_breach_producers: Option<usize>,
    /// Live-resize wall-clock tax.
    pub resize_overhead_ratio: f64,
    /// The chaos agreement verdict — the only hard gate.
    pub passed: bool,
}

/// Everything one drill run measured.
#[derive(Debug, Clone, Serialize)]
pub struct DrillReport {
    /// PR number this benchmark file belongs to.
    pub pr: u32,
    /// Human title.
    pub title: String,
    /// How the numbers were produced.
    pub harness: String,
    /// Seed that determined kills, weights, and categories.
    pub seed: u64,
    /// Quick (CI) mode?
    pub quick: bool,
    /// The pass/fail summary.
    pub gate: DrillGate,
    /// Producer ramp until SLO breach.
    pub slo_ramp: SloRamp,
    /// The correctness gate run.
    pub chaos_agreement: ChaosAgreement,
    /// Fence-protocol cost under load.
    pub resize_overhead: ResizeOverhead,
    /// Policy-driven shard-count trajectory.
    pub autoscale: AutoscaleDrill,
}

/// Run the full drill.
pub fn run(seed: u64, quick: bool) -> DrillReport {
    let slo = slo_ramp(quick);
    let chaos = chaos_agreement(seed, quick);
    let overhead = resize_overhead(quick);
    let autoscale = autoscale_drill(quick);
    let gate = DrillGate {
        target: "resize-under-load (grow, seeded kill, roll, shrink) equals the fixed-shard run"
            .into(),
        chaos_max_cdi_delta: chaos.max_cdi_delta,
        slo_breach_producers: slo.breach_producers,
        resize_overhead_ratio: overhead.overhead_ratio,
        passed: chaos.passed,
    };
    DrillReport {
        pr: 6,
        title: "cdi-serve: online elastic re-sharding, shard lifecycle, and chaos drills".into(),
        harness: format!(
            "experiments drill --seed {seed}{} ({} targets; SLO p99 ingest {} us, staleness {} ms)",
            if quick { " --quick" } else { "" },
            TARGETS,
            SLO_P99_INGEST_US,
            SLO_STALENESS_MS,
        ),
        seed,
        quick,
        gate,
        slo_ramp: slo,
        chaos_agreement: chaos,
        resize_overhead: overhead,
        autoscale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_spans_are_deterministic_and_valid() {
        for t in 0..16 {
            for c in 0..4 {
                let a = wave_span(7, t, c);
                let b = wave_span(7, t, c);
                assert_eq!(a, b);
                assert!(a.weight > 0.0 && a.weight <= 1.0, "weight {}", a.weight);
                assert_eq!(a.end - a.start, MIN);
            }
        }
        // Different seeds give different streams.
        let any_differ = (0..16u64).any(|t| wave_span(1, t, 0) != wave_span(2, t, 0));
        assert!(any_differ);
    }

    #[test]
    fn quick_chaos_agreement_passes_the_gate() {
        let r = chaos_agreement(0xD1A6, true);
        assert!(r.passed, "max delta {}", r.max_cdi_delta);
        assert_eq!(r.kills, 1);
        assert!(r.respawns >= 1);
        assert!(r.restarts >= 1);
        assert_eq!(r.shard_path, vec![3, 6, 2]);
    }

    #[test]
    fn autoscale_grows_under_burst_and_shrinks_when_idle() {
        let r = autoscale_drill(true);
        assert!(r.steps.len() == 8);
        assert!(r.peak_shards >= 2);
        assert!(r.final_shards <= r.peak_shards);
        for s in &r.steps {
            let held = s.shards_before == s.shards_after;
            let doubled = s.shards_after == (s.shards_before * 2).min(16);
            let halved = s.shards_after == (s.shards_before / 2).max(2);
            assert!(held || doubled || halved, "wave {} moved {}→{}", s.wave, s.shards_before, s.shards_after);
        }
    }
}
