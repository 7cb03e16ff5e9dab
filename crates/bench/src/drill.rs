//! The chaos drill for `cdi-serve` (`experiments drill`).
//!
//! Two probes:
//!
//! - **Chaos agreement**: the correctness gate. A run that is grown
//!   3 → 6 shards, has a seeded-random shard killed, is rolled
//!   shard-by-shard, and is shrunk 6 → 2 — all while three producers
//!   keep writing — must equal an uninterrupted fixed-shard run's
//!   per-target CDI on every indicator (damage is an integer sum, so the
//!   delta is exactly zero or the protocol lost a span).
//! - **Autoscale drill**: heavy and light load waves against
//!   [`AutoScalerPolicy`], resizing on each wave's queue-depth
//!   high-water mark — records the shard-count trajectory.
//!
//! The drill is seeded: the killed shard, span weights, and categories
//! are all functions of `--seed`. The autoscale trajectory depends on
//! thread scheduling; the agreement gate does not.

use std::sync::{Arc, Barrier};

use cdi_core::event::{Category, EventSpan, Target};
use cdi_serve::{AutoScalerPolicy, BackpressurePolicy, CdiService, ServeConfig};

const MIN: i64 = 60_000;
/// Distinct VM targets in the synthetic stream.
const TARGETS: u64 = 256;

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

/// The correctness gate: chaos run vs. uninterrupted run.
#[derive(Debug, Clone)]
pub struct ChaosAgreement {
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
        shard_path,
        kills: m.shard_kills,
        respawns: m.shard_respawns,
        restarts: m.shard_restarts,
        max_cdi_delta: max_delta,
        lock_order_violations: lock_violations.len(),
        passed: max_delta == 0.0 && lock_violations.is_empty(),
    }
}

/// One autoscaler wave: load, observe, maybe resize.
#[derive(Debug, Clone)]
pub struct AutoscaleStep {
    /// Wave index.
    pub wave: usize,
    /// Shard count entering the wave.
    pub shards_before: usize,
    /// Shard count after the policy's verdict (same as before on hold).
    pub shards_after: usize,
}

/// The autoscale drill: the policy's shard-count trajectory under a
/// heavy-then-light load profile.
#[derive(Debug, Clone)]
pub struct AutoscaleDrill {
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
        steps.push(AutoscaleStep { wave, shards_before: before, shards_after: after });
    }
    let final_shards = svc.shard_count();
    AutoscaleDrill { steps, peak_shards: peak, final_shards }
}

/// Everything one drill run measured.
#[derive(Debug, Clone)]
pub struct DrillReport {
    /// The correctness gate run; its verdict is the drill's only hard gate.
    pub chaos_agreement: ChaosAgreement,
    /// Policy-driven shard-count trajectory.
    pub autoscale: AutoscaleDrill,
}

/// Run the full drill.
pub fn run(seed: u64, quick: bool) -> DrillReport {
    DrillReport { chaos_agreement: chaos_agreement(seed, quick), autoscale: autoscale_drill(quick) }
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
