//! The benchmark's fixed vocabulary: workloads, metric names with their
//! units, and the constants of the fixed input. `BENCHMARK.json` at the
//! repository root states the same names; a test keeps the two equal.

use std::time::Duration;

use simfleet::scenario::MINUTE;
use simfleet::FleetConfig;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether a metric repeats exactly for a given seed and arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A count or size fixed by the seed: kept by `--counts-only`, and
    /// `check-repeat` demands it be identical between two runs.
    Exact,
    /// Anything that depends on the clock or on thread interleaving:
    /// zeroed by `--counts-only`.
    Measured,
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer metrics, which have none).
    pub bound: f64,
    /// Exact count or measurement.
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
        kind: Kind::Measured,
    }
}

const fn e2e_exact(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound,
        kind: Kind::Exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
        kind: Kind::Measured,
    }
}

const fn count(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        kind: Kind::Exact,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, with the bound by which a later
/// change may worsen it. Every workload reports every one of these.
/// `setup_s` has the largest bound, as the driver's contract asks; the rest
/// keep the issue's bounds.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e_exact("wire_bytes_per_span", "B/span", 0.02),
    e2e("query_p50_us.point", "us", Lower, 0.10),
    e2e("query_p50_us.topk", "us", Lower, 0.10),
    e2e("query_p50_us.rollup", "us", Lower, 0.10),
    e2e_exact("table_bytes_per_row", "B/row", 0.02),
    e2e_exact("snapshot_bytes_per_target", "B/target", 0.02),
];

/// Single-layer metrics from the traced run. Layer = module name.
pub const PER_LAYER: &[MetricSpec] = &[
    // Measured over the wire with no span open. The issue lists these
    // seven as end-to-end; none held its bound on every workload.
    layer("ingest_spans_per_s", "spans/s", Higher),
    layer("visible_p50_us", "us", Lower),
    layer("batch_makespan_s", "s", Lower),
    layer("bi_drilldown_p50_us", "us", Lower),
    layer("resize_p50_ms", "ms", Lower),
    layer("respawn_p50_ms", "ms", Lower),
    layer("restore_p50_ms", "ms", Lower),
    layer("simfleet.series_s", "s", Lower),
    count("simfleet.samples", "count"),
    layer("cloudbot.collect_s", "s", Lower),
    count("cloudbot.collect_records", "count"),
    layer("cloudbot.extract_s", "s", Lower),
    count("cloudbot.events", "count"),
    layer("cloudbot.feed_build_s", "s", Lower),
    count("cloudbot.feed_spans", "count"),
    layer("cdi-core.derive_s", "s", Lower),
    layer("cdi-core.weights_s", "s", Lower),
    layer("cdi-core.vm_cdi_s", "s", Lower),
    count("cdi-core.quarantined", "count"),
    layer("cdi-core.accum_ns_per_span", "ns/span", Lower),
    layer("minispark.eventlog_scan_s", "s", Lower),
    layer("minispark.shuffle_s", "s", Lower),
    layer("minispark.rows_cloned", "count", Lower),
    layer("minispark.table_build_s", "s", Lower),
    layer("minispark.save_packed_s", "s", Lower),
    layer("minispark.load_packed_s", "s", Lower),
    count("minispark.table_bytes", "B"),
    layer("minispark.bi_query_p50_us", "us", Lower),
    layer("daily_job.run_s", "s", Lower),
    layer("daily_job.closure_ratio", "ratio", Lower),
    layer("cdipack.encode_req_s", "s", Lower),
    count("cdipack.req_bytes", "B"),
    layer("cdipack.decode_req_s", "s", Lower),
    layer("cdipack.decode_ns_per_span", "ns/span", Lower),
    layer("cdipack.encode_resp_s", "s", Lower),
    count("cdipack.resp_bytes", "B"),
    layer("cdipack.snapshot_encode_s", "s", Lower),
    layer("cdipack.snapshot_decode_s", "s", Lower),
    count("cdipack.decode_errors", "count"),
    layer("server.rtt_p50_us", "us", Lower),
    layer("server.rtt_top_us", "us", Lower),
    layer("server.wire_residual_s", "s", Lower),
    layer("server.wire_over_staged_ratio", "ratio", Lower),
    layer("server.error_replies", "count", Lower),
    layer("server.ladder_sustained_ticks_per_s", "ticks/s", Higher),
    layer("loadgen.late_p50_us", "us", Lower),
    layer("loadgen.late_top_us", "us", Lower),
    layer("service.ingest_batch_s", "s", Lower),
    layer("service.ingest_batch_p50_us", "us", Lower),
    count("service.deliveries", "count"),
    count("service.fanout_ratio", "ratio"),
    layer("service.advance_s", "s", Lower),
    layer("service.flush_wait_s", "s", Lower),
    layer("service.staged_spans_per_s", "spans/s", Higher),
    layer("service.spans_shed", "count", Lower),
    layer("queue.depth_hwm", "count", Lower),
    layer("queue.handoff_ns_per_msg", "ns/msg", Lower),
    layer("shard.apply_s", "s", Lower),
    layer("shard.apply_ns_per_msg", "ns/msg", Lower),
    count("shard.skew", "ratio"),
    count("shard.late_dropped", "count"),
    count("shard.late_clipped", "count"),
    count("shard.rejected", "count"),
    count("shard.targets", "count"),
    layer("shard.point_p50_ns", "ns", Lower),
    layer("shard.topk_p50_us", "us", Lower),
    layer("topk.merge_p50_us", "us", Lower),
    layer("rollup.region_p50_us", "us", Lower),
    layer("rollup.az_p50_us", "us", Lower),
    layer("rollup.cluster_p50_us", "us", Lower),
    layer("snapshot.capture_s", "s", Lower),
    layer("snapshot.pack_bytes", "B", Lower),
    layer("snapshot.restore_s", "s", Lower),
    layer("lifecycle.resize_s", "s", Lower),
    count("lifecycle.moved_targets", "count"),
    layer("lifecycle.drained_msgs", "count", Lower),
    layer("lifecycle.respawn_s", "s", Lower),
    layer("lifecycle.replayed_bytes", "B", Lower),
    layer("lifecycle.rolling_restart_s", "s", Lower),
    count("lifecycle.fence_epochs", "count"),
    count("cdipack.decode_req.allocs", "count"),
    count("cdipack.decode_req.alloc_bytes", "B"),
    layer("service.ingest_batch.allocs", "count", Lower),
    layer("service.ingest_batch.alloc_bytes", "B", Lower),
    count("shard.apply.allocs", "count"),
    count("shard.apply.alloc_bytes", "B"),
    count("shard.topk.allocs", "count"),
    count("shard.topk.alloc_bytes", "B"),
    count("cloudbot.collect.allocs", "count"),
    count("cloudbot.collect.alloc_bytes", "B"),
    count("cloudbot.extract.allocs", "count"),
    count("cloudbot.extract.alloc_bytes", "B"),
    count("cdi-core.derive.allocs", "count"),
    count("cdi-core.derive.alloc_bytes", "B"),
    count("minispark.shuffle.allocs", "count"),
    count("minispark.shuffle.alloc_bytes", "B"),
    count("snapshot.capture.allocs", "count"),
    count("snapshot.capture.alloc_bytes", "B"),
    layer("cdi_max_abs_delta", "ratio", Lower),
    layer("trace_overhead_ratio", "ratio", Lower),
];

/// The four phases every workload is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Closed-loop, write-only, fully pipelined ingest.
    Saturate,
    /// Open-loop paced feed with a closed-loop query connection beside it.
    Mix,
    /// The paced feed with a control connection driving the shard lifecycle.
    Churn,
    /// The daily job, its store, and the BI drill-downs.
    Batch,
}

/// One workload: a name, the reason it exists, and its home phase.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why it exists.
    pub why: &'static str,
    /// The phase that gets the run's `--seconds`.
    pub home: Phase,
}

/// The benchmark's workloads.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "wire-saturate",
        why: "ingest capacity: pre-encoded frames pipelined down one connection, so cdipack decode, ingest_batch, queues and shard apply do all the work and extraction and queries none",
        home: Phase::Saturate,
    },
    WorkloadSpec {
        name: "paced-mix",
        why: "what on-call sees: freshness and query latency while the feed trickles in at 10 ticks/s; each round trip is pinned near 44 ms by the server's two-write reply, so it shows the wire, not query cost",
        home: Phase::Mix,
    },
    WorkloadSpec {
        name: "daily-batch",
        why: "the Section V twin: its time goes to daily_job::run, where collector, extractor, derivation and shuffle do the work and the serving stack none, so an ingest change predicts no change in batch numbers",
        home: Phase::Batch,
    },
    WorkloadSpec {
        name: "lifecycle-churn",
        why: "the only workload where snapshot shape, checkpoint and delta replay and the fence protocol do most of the work: kill, resize, restore and rolling restart under the paced feed",
        home: Phase::Churn,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Shards of every live service in the benchmark (a constant, not a
/// function of `nproc`).
pub const SHARDS: usize = 2;
/// Per-shard ingest queue capacity.
pub const QUEUE_CAPACITY: usize = 1024;
/// Server worker threads, hence the most connections served at once.
pub const SERVER_WORKERS: usize = 2;
/// Shard count `restore` and `Resize` grow to.
pub const GROWN_SHARDS: usize = 3;
/// `daily_job::run` worker threads.
pub const JOB_THREADS: usize = 2;
/// `daily_job::run` shuffle partitions.
pub const JOB_PARTITIONS: usize = 8;
/// Collector sampling step of the pipeline.
pub const STEP_MS: i64 = MINUTE;
/// Tick of the saturating feed.
pub const SATURATE_TICK_MS: i64 = 5 * MINUTE;
/// Tick of the paced feed.
pub const PACED_TICK_MS: i64 = 30 * MINUTE;
/// Tick latency above which a ladder step does not count as sustained.
pub const LADDER_LIMIT: Duration = Duration::from_millis(100);

/// Everything that differs between the real benchmark and the quick
/// variant the tests run (a smaller fleet and denser schedules, so a test
/// takes seconds). Not an option of the benchmark: the binary always runs
/// [`Scale::FULL`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// NCs per cluster (2 regions × 2 AZs × 2 clusters × this × `vms_per_nc`).
    pub ncs_per_cluster: usize,
    /// VMs per NC.
    pub vms_per_nc: usize,
    /// Seed-placed 20-minute `NicFlapping` faults on NCs.
    pub nic_faults: usize,
    /// Paced ticks per second.
    pub tick_rate: u32,
    /// Period of the control operations.
    pub control_period: Duration,
    /// Day-shifts of the saturating stream.
    pub saturate_days: usize,
    /// How long a phase measures on a workload where it is not at home.
    pub away: Duration,
    /// BI queries after the batch repetitions.
    pub bi_queries: usize,
    /// Idle-server round trips for `server.rtt_p50_us`.
    pub rtt_samples: usize,
    /// `(ticks/s, ticks)` steps of the rate ladder.
    pub ladder: [(u32, usize); 3],
    /// Repetitions of each staged replay in the traced run.
    pub staged_reps: usize,
    /// Repetitions of the daily job and of its staged twin in the traced run.
    pub twin_reps: usize,
}

impl Scale {
    /// The benchmark as `BENCHMARK.json` runs it: the fleet-2k day.
    pub const FULL: Scale = Scale {
        ncs_per_cluster: 32,
        vms_per_nc: 8,
        nic_faults: 16,
        tick_rate: 10,
        control_period: Duration::from_millis(70),
        saturate_days: 6,
        away: Duration::from_secs(3),
        bi_queries: 3000,
        rtt_samples: 30,
        ladder: [(10, 20), (100, 100), (1000, 500)],
        staged_reps: 3,
        twin_reps: 5,
    };

    /// The variant the tests run.
    pub const QUICK: Scale = Scale {
        ncs_per_cluster: 2,
        vms_per_nc: 4,
        nic_faults: 4,
        tick_rate: 100,
        control_period: Duration::from_millis(20),
        saturate_days: 2,
        away: Duration::from_millis(100),
        bi_queries: 60,
        rtt_samples: 12,
        ladder: [(100, 12), (200, 12), (400, 12)],
        staged_reps: 1,
        twin_reps: 1,
    };

    /// The fleet shape.
    pub fn fleet(&self) -> FleetConfig {
        FleetConfig {
            regions: vec!["r1".into(), "r2".into()],
            azs_per_region: 2,
            clusters_per_az: 2,
            ncs_per_cluster: self.ncs_per_cluster,
            vms_per_nc: self.vms_per_nc,
            ..FleetConfig::default()
        }
    }

    /// Period between paced ticks.
    pub fn tick_period(&self) -> Duration {
        Duration::from_secs(1) / self.tick_rate
    }

    /// Paced ticks that fit into `time`.
    pub fn ticks_in(&self, time: Duration) -> usize {
        (time.as_nanos() / self.tick_period().as_nanos().max(1)) as usize
    }
}

impl WorkloadSpec {
    /// How long `phase` measures in a run of this workload. Every phase
    /// has one traffic shape; a workload gives its home phase the run's
    /// `--seconds` and each of the others [`Scale::away`], so every metric
    /// has a measured value on every workload and the home workload has the
    /// many-sample one.
    pub fn time_for(&self, phase: Phase, seconds: u64, scale: &Scale) -> Duration {
        if phase == self.home {
            Duration::from_secs(seconds)
        } else {
            scale.away
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
