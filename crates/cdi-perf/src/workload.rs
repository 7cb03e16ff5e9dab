//! One benchmark run: set up, execute every phase for as long as the workload
//! gives it, check the outputs, and name every number.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::batch::{self, BatchRep};
use crate::context::Context;
use crate::input::{self, encode_stream, Input};
use crate::layers;
use crate::spec::{self, Kind, MetricSpec, Phase, Scale, WorkloadSpec};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::wire::{self, Tally};

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: &'static WorkloadSpec,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the home phase measures.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Zero every measured value, keep the exact counts.
    pub counts_only: bool,
    /// Full benchmark or the tests' quick variant.
    pub scale: Scale,
    /// Directory for the trace file and the batch phase's store.
    pub out_dir: PathBuf,
}

/// One reported value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The object a run prints as its last line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Every correctness check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every end-to-end metric (untraced) or per-layer metric (traced).
    pub metrics: BTreeMap<String, MetricValue>,
}

/// A run's result plus what only the text report shows.
#[derive(Debug)]
pub struct RunOutput {
    /// The machine-readable result.
    pub result: RunResult,
    /// Sample count and supported tail of each timing.
    pub details: BTreeMap<&'static str, Summary>,
    /// Why operations failed, if any did.
    pub notes: Vec<String>,
}

/// Collects named values against a metric table.
#[derive(Debug)]
struct Board {
    table: &'static [MetricSpec],
    values: BTreeMap<&'static str, f64>,
    details: BTreeMap<&'static str, Summary>,
}

impl Board {
    fn new(table: &'static [MetricSpec]) -> Board {
        Board {
            table,
            values: BTreeMap::new(),
            details: BTreeMap::new(),
        }
    }

    fn spec(&self, name: &str) -> &'static MetricSpec {
        self.table
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the table: a bug in this harness"))
    }

    fn set(&mut self, name: &str, value: f64) {
        let spec = self.spec(name);
        assert!(
            self.values.insert(spec.name, value).is_none(),
            "metric '{name}' set twice"
        );
    }

    /// Set a timing to the median of its samples.
    fn median(&mut self, name: &str, samples: &[f64]) {
        let s = stats::summarize(samples);
        self.details.insert(self.spec(name).name, s);
        self.set(name, s.median);
    }

    fn finish(self, counts_only: bool, tally: Tally) -> RunOutput {
        let mut metrics = BTreeMap::new();
        for spec in self.table {
            let value = self.values.get(spec.name).copied().unwrap_or_else(|| {
                panic!(
                    "metric '{}' was never set: a bug in this harness",
                    spec.name
                )
            });
            let value = if counts_only && spec.kind == Kind::Measured {
                0.0
            } else {
                value
            };
            metrics.insert(
                spec.name.to_string(),
                MetricValue {
                    value,
                    unit: spec.unit.to_string(),
                },
            );
        }
        RunOutput {
            result: RunResult {
                correct: tally.failed == 0,
                // How many closed-loop queries fit depends on the clock:
                // with the clock's fields zeroed, the run is one operation.
                attempted: if counts_only {
                    1 + tally.failed
                } else {
                    tally.attempted.max(1)
                },
                failed: tally.failed,
                metrics,
            },
            details: if counts_only {
                BTreeMap::new()
            } else {
                self.details
            },
            notes: tally.notes,
        }
    }
}

/// Peak resident set of this process since the last [`reset_peak_rss`],
/// MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the kernel's high-water mark at the current resident set, so
/// the peak that follows belongs to the phases and not to set-up (which
/// collects the whole day several times). Where the kernel refuses, the
/// peak stays the whole process's.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Fewest timed repetitions of a repeated phase.
const MIN_REPS: usize = 3;

/// Run `one` once as a discarded warm-up, then for `time` and at least
/// [`MIN_REPS`] times.
fn repeat<T>(time: Duration, mut one: impl FnMut() -> Option<T>) -> Vec<T> {
    let _ = one();
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || start.elapsed() < time {
        match one() {
            Some(x) => out.push(x),
            None => break,
        }
    }
    out
}

/// Run `one` once as a discarded warm-up, then `n` times.
fn warm_then(n: usize, mut one: impl FnMut() -> f64) -> Vec<f64> {
    let _ = one();
    (0..n).map(|_| one()).collect()
}

fn store_dir(args: &RunArgs) -> PathBuf {
    args.out_dir.join(format!(
        "store.{}.{}",
        args.workload.name,
        std::process::id()
    ))
}

/// Execute one run.
pub fn run(args: &RunArgs) -> RunOutput {
    // Untimed: touch the pages the first collect would otherwise fault in.
    input::Day::new(args.seed, &args.scale).warm_pages();
    let out = if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    };
    let _ = std::fs::remove_dir_all(store_dir(args));
    out
}

/// What the four phases of one run measured over the wire. Nothing in
/// here is traced: these are the numbers a user of the system would see.
struct Phases {
    /// Saturate: logical spans per second, per repetition.
    rates: Vec<f64>,
    /// Mix: the paced feed and the query cycle beside it.
    mix: wire::MixRun,
    /// Churn, where the run has it: the paced feed and the control operations.
    churn: Option<wire::ChurnRun>,
    /// Batch: job + store round trip + drill-downs, seconds per repetition.
    makespans: Vec<f64>,
    /// Batch: each BI query on the reloaded table, µs.
    bi_us: Vec<f64>,
    /// Batch: `.cdp` bytes of the vm table per row.
    table_bytes_per_row: f64,
}

impl Phases {
    /// Run every phase `input` has a stream for, each for as long as the
    /// workload gives it.
    fn run(args: &RunArgs, input: &Input, tally: &mut Tally) -> Phases {
        let (scale, fleet) = (&args.scale, &input.day.fleet);
        let time = |phase| args.workload.time_for(phase, args.seconds, scale);
        let period = scale.tick_period();

        let (stream, oracle) = &input.saturate;
        let rates = repeat(time(Phase::Saturate), || {
            let wall_s = wire::saturate(fleet, stream, oracle, tally);
            Some(stream.spans as f64 / wall_s)
        });

        let (stream, oracle) = &input.mix;
        let mix = wire::mix_phase(fleet, stream, oracle, period, args.seed, tally);

        let churn = input.churn.as_ref().map(|(stream, oracle)| {
            wire::churn_phase(fleet, stream, oracle, period, scale.control_period, tally)
        });

        let dir = store_dir(args);
        let reps: Vec<BatchRep> = repeat(time(Phase::Batch), || {
            batch::batch_rep(&input.day, &input.batch_rows, &dir, tally)
        });
        let last = reps.last();
        Phases {
            rates,
            mix,
            churn,
            makespans: reps.iter().map(|r| r.makespan_s).collect(),
            bi_us: last.map_or_else(Vec::new, |r| {
                batch::bi_loop(&r.reloaded, scale.bi_queries, tally)
            }),
            table_bytes_per_row: last.map_or(0.0, |r| r.table_bytes as f64 / r.rows.max(1) as f64),
        }
    }
}

/// Paced ticks of the mix and churn streams of one run. An untraced run
/// has the churn phase only where it is at home: nothing end-to-end comes
/// from it elsewhere.
fn paced_ticks(args: &RunArgs) -> (usize, usize) {
    let scale = &args.scale;
    let ticks = |phase| scale.ticks_in(args.workload.time_for(phase, args.seconds, scale));
    let churn = if args.trace || args.workload.home == Phase::Churn {
        ticks(Phase::Churn)
    } else {
        0
    };
    (ticks(Phase::Mix), churn)
}

/// Times set-up is done in an untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

fn run_untraced(args: &RunArgs) -> RunOutput {
    let mut board = Board::new(spec::END_TO_END);
    let mut tally = Tally::default();
    let (mix_ticks, churn_ticks) = paced_ticks(args);
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut input = None;
    for _ in 0..SETUPS {
        drop(input.take());
        let t = Instant::now();
        input = Some(Input::build(
            args.seed,
            &args.scale,
            mix_ticks,
            churn_ticks,
            &mut off,
        ));
        setups.push(t.elapsed().as_secs_f64());
    }
    let input = input.expect("set-up ran");
    board.median("setup_s", &setups);

    reset_peak_rss();
    let phases = Phases::run(args, &input, &mut tally);
    board.set("peak_rss_mb", peak_rss_mb());
    let (stream, oracle) = &input.saturate;
    board.set(
        "wire_bytes_per_span",
        stream.bytes as f64 / stream.spans as f64,
    );
    board.set(
        "snapshot_bytes_per_target",
        oracle.snapshot_bytes as f64 / oracle.cdi.len() as f64,
    );
    board.median("query_p50_us.point", &phases.mix.queries.point_us);
    board.median("query_p50_us.topk", &phases.mix.queries.topk_us);
    board.median("query_p50_us.rollup", &phases.mix.queries.rollup_us);
    board.set("table_bytes_per_row", phases.table_bytes_per_row);
    board.finish(args.counts_only, tally)
}

fn run_traced(args: &RunArgs) -> RunOutput {
    let mut tracer = Tracer::new(true);
    let (mix_ticks, churn_ticks) = paced_ticks(args);
    // Set-up under the tracer: feed build and frame encoding are spans.
    let input = Input::build(args.seed, &args.scale, mix_ticks, churn_ticks, &mut tracer);
    let mut run = Traced {
        args,
        input: &input,
        board: Board::new(spec::PER_LAYER),
        tally: Tally::default(),
        tracer,
        off: Tracer::new(false),
    };
    run.over_the_wire();
    run.live_path();
    run.wire_itself();
    run.batch_path();
    run.board
        .set("server.error_replies", run.tally.error_replies as f64);
    write_trace(&args.out_dir, args, &run.tracer);
    run.board.finish(args.counts_only, run.tally)
}

/// The state the parts of a traced run share.
struct Traced<'a> {
    args: &'a RunArgs,
    input: &'a Input,
    board: Board,
    tally: Tally,
    /// The recorder.
    tracer: Tracer,
    /// A recorder that records nothing, for warm-ups and untraced walls.
    off: Tracer,
}

impl Traced<'_> {
    /// `<span>.allocs` and `.alloc_bytes` per repetition, to the nearest
    /// whole allocation (a repetition that is the first to touch something
    /// lazily initialised makes one or two more than the others).
    fn span_allocs(&mut self, span: &str, reps: f64) {
        let (allocs, bytes) = self.tracer.allocs(span);
        self.board
            .set(&format!("{span}.allocs"), (allocs as f64 / reps).round());
        self.board.set(
            &format!("{span}.alloc_bytes"),
            (bytes as f64 / reps).round(),
        );
    }

    /// The four phases over the wire, with no span open: the wall-clock
    /// numbers that could not hold a regression bound on this kind of
    /// machine, so they are reported here and gated nowhere.
    fn over_the_wire(&mut self) {
        let phases = Phases::run(self.args, self.input, &mut self.tally);
        let board = &mut self.board;
        board.median("ingest_spans_per_s", &phases.rates);
        board.median("batch_makespan_s", &phases.makespans);
        board.median("bi_drilldown_p50_us", &phases.bi_us);
        let churn = phases.churn.unwrap_or_default();
        // Freshness is at home on both paced workloads. Under churn it is
        // the feed's own view of the fences.
        let paced = if self.args.workload.home == Phase::Churn {
            &churn.paced
        } else {
            &phases.mix.paced
        };
        board.median("visible_p50_us", &paced.visible_us);
        board.median("loadgen.late_p50_us", &paced.late_us);
        board.set(
            "loadgen.late_top_us",
            stats::summarize(&paced.late_us).tail(),
        );
        board.median("resize_p50_ms", &churn.control.resize_ms);
        board.median("respawn_p50_ms", &churn.control.respawn_ms);
        board.median("restore_p50_ms", &churn.control.restore_ms);
    }

    /// The live path: staged replay, the steps on the service it leaves
    /// behind, and the standalone replays.
    fn live_path(&mut self) {
        let Traced {
            args,
            input,
            board,
            tally,
            tracer,
            off,
            ..
        } = self;
        let (scale, fleet) = (&args.scale, &input.day.fleet);
        let (stream, oracle) = match args.workload.home {
            Phase::Mix => &input.mix,
            Phase::Churn => input
                .churn
                .as_ref()
                .expect("a traced run has a churn stream"),
            Phase::Saturate | Phase::Batch => &input.saturate,
        };
        board.set("cloudbot.feed_spans", input.feed_spans as f64);
        board.set(
            "cloudbot.feed_build_s",
            tracer.total_s("cloudbot.feed_build"),
        );
        board.set("cdipack.encode_req_s", tracer.total_s("cdipack.encode_req"));
        board.set("cdipack.req_bytes", stream.bytes as f64);

        // Untraced wire and untraced staged walls first: the residual and
        // the tracing overhead are measured against them.
        let wire_wall = stats::median(&warm_then(scale.staged_reps, || {
            wire::saturate(fleet, stream, oracle, tally)
        }));
        let staged_wall = stats::median(&warm_then(scale.staged_reps, || {
            layers::staged_replay(fleet, stream, off).2
        }));
        let mut traced_walls = Vec::new();
        let mut delta: f64 = 0.0;
        let mut last = None;
        for _ in 0..scale.staged_reps {
            let (svc, counts, wall_s) = layers::staged_replay(fleet, stream, tracer);
            delta = delta.max(wire::check_final_state(&svc, oracle, tally));
            traced_walls.push(wall_s);
            last = Some((svc, counts));
        }
        let (svc, counts) = last.expect("staged_reps is at least 1");
        let reps = scale.staged_reps as f64;
        let per_rep = |tracer: &Tracer, name: &str| tracer.total_s(name) / reps;
        board.set("cdi_max_abs_delta", delta);
        board.set(
            "trace_overhead_ratio",
            stats::median(&traced_walls) / staged_wall,
        );
        board.set("server.wire_residual_s", wire_wall - staged_wall);
        board.set("server.wire_over_staged_ratio", wire_wall / staged_wall);
        board.set(
            "service.staged_spans_per_s",
            stream.spans as f64 / staged_wall,
        );
        let decode_s = per_rep(tracer, "cdipack.decode_req");
        board.set("cdipack.decode_req_s", decode_s);
        board.set(
            "cdipack.decode_ns_per_span",
            decode_s * 1e9 / stream.spans as f64,
        );
        board.set(
            "cdipack.encode_resp_s",
            per_rep(tracer, "cdipack.encode_resp"),
        );
        board.set("cdipack.resp_bytes", counts.resp_bytes as f64);
        board.set("cdipack.decode_errors", counts.decode_errors as f64);
        board.set(
            "service.ingest_batch_s",
            per_rep(tracer, "service.ingest_batch"),
        );
        let batch_us: Vec<f64> = tracer
            .durations_s("service.ingest_batch")
            .iter()
            .map(|s| s * 1e6)
            .collect();
        board.median("service.ingest_batch_p50_us", &batch_us);
        board.set("service.advance_s", per_rep(tracer, "service.advance"));
        board.set(
            "service.flush_wait_s",
            per_rep(tracer, "service.flush_wait"),
        );
        let m = svc.metrics();
        board.set("service.deliveries", m.spans_ingested as f64);
        board.set(
            "service.fanout_ratio",
            m.spans_ingested as f64 / stream.spans as f64,
        );
        board.set("service.spans_shed", m.spans_shed as f64);
        board.set("queue.depth_hwm", m.queue_depth_hwm as f64);
        board.set("shard.late_dropped", m.late_dropped as f64);
        board.set("shard.late_clipped", m.late_clipped as f64);
        board.set("shard.rejected", m.rejected as f64);
        board.set("shard.targets", svc.target_count() as f64);
        tally.check(counts.error_replies + counts.decode_errors == 0, || {
            format!("staged replay: {counts:?}")
        });
        tally.error_replies += counts.error_replies;

        // Queries and lifecycle steps on the service the replay left behind.
        let [region, az, cluster] = layers::rollup_p50_us(&svc, fleet, scale.rtt_samples);
        board.set("rollup.region_p50_us", region);
        board.set("rollup.az_p50_us", az);
        board.set("rollup.cluster_p50_us", cluster);
        let steps = layers::lifecycle_steps(&svc, tracer);
        tally.check(steps.ok, || {
            "an in-process snapshot or lifecycle step failed".to_string()
        });
        // The steps must not have moved a single CDI.
        wire::check_final_state(&svc, oracle, tally);
        drop(svc);
        board.set("snapshot.capture_s", tracer.total_s("snapshot.capture"));
        board.set("snapshot.pack_bytes", steps.pack_bytes as f64);
        board.set("cdipack.snapshot_encode_s", steps.encode_s);
        board.set("cdipack.snapshot_decode_s", steps.decode_s);
        board.set("snapshot.restore_s", steps.restore_s);
        board.set("lifecycle.resize_s", steps.resize_s);
        board.set("lifecycle.moved_targets", steps.moved_targets as f64);
        board.set("lifecycle.drained_msgs", steps.drained_msgs as f64);
        board.set("lifecycle.respawn_s", steps.respawn_s);
        board.set("lifecycle.replayed_bytes", steps.replayed_bytes as f64);
        board.set("lifecycle.rolling_restart_s", steps.rolling_restart_s);
        board.set("lifecycle.fence_epochs", steps.fence_epochs as f64);

        // Layers no outside span reaches inside a running service, replayed
        // alone over the first day of the same stream.
        let head = input::Stream {
            chunks: stream.prefix(STANDALONE_CHUNKS).to_vec(),
            ..stream.clone()
        };
        let deliveries = layers::Deliveries::of(&head.requests(), fleet, spec::SHARDS);
        let samples = scale.rtt_samples * 4;
        let alone = layers::standalone(&deliveries, args.seed, samples, tracer);
        board.set("queue.handoff_ns_per_msg", alone.handoff_ns_per_msg);
        board.set("shard.apply_s", alone.apply_s);
        board.set("shard.apply_ns_per_msg", alone.apply_ns_per_msg);
        board.set("shard.skew", alone.skew);
        board.set("cdi-core.accum_ns_per_span", alone.accum_ns_per_span);
        board.set("shard.point_p50_ns", alone.point_p50_ns);
        board.set("shard.topk_p50_us", alone.topk_p50_us);
        board.set("topk.merge_p50_us", alone.merge_p50_us);

        self.span_allocs("cdipack.decode_req", reps);
        self.span_allocs("service.ingest_batch", reps);
        self.span_allocs("snapshot.capture", 1.0);
        self.span_allocs("shard.apply", 1.0);
        self.span_allocs("shard.topk", (samples * spec::SHARDS) as f64);
    }

    /// The wire itself: idle round trip and rate ladder.
    fn wire_itself(&mut self) {
        let Traced {
            args,
            input,
            board,
            tally,
            off,
            ..
        } = self;
        let (scale, fleet) = (&args.scale, &input.day.fleet);
        let rtt = wire::idle_rtt(fleet, scale.rtt_samples, tally);
        board.median("server.rtt_p50_us", &rtt);
        board.set("server.rtt_top_us", stats::summarize(&rtt).tail());
        let longest = scale.ladder.iter().map(|s| s.1).max().unwrap_or(0);
        let ladder_stream = encode_stream(&input.coarse, longest, true, off);
        board.set(
            "server.ladder_sustained_ticks_per_s",
            wire::rate_ladder(fleet, &ladder_stream, &scale.ladder),
        );
    }

    /// The batch path: the real job for the wall, the staged twin for the
    /// layers. Job and twin take turns, so a slow spell of the machine
    /// falls on both sides of the closure ratio; repetition 0 of each is
    /// the warm-up and goes unrecorded.
    fn batch_path(&mut self) {
        let Traced {
            args,
            input,
            board,
            tally,
            tracer,
            off,
        } = self;
        let dir = store_dir(args);
        let twin_reps = args.scale.twin_reps;
        let mut jobs: Vec<BatchRep> = Vec::new();
        let mut twin_sums = Vec::new();
        let mut twin_counts = batch::TwinCounts::default();
        for rep in 0..=twin_reps as u64 {
            let job = batch::batch_rep(&input.day, &input.batch_rows, &dir, tally);
            let recorder = if rep == 0 { &mut *off } else { &mut *tracer };
            match batch::staged_twin(&input.day, &dir, rep, recorder) {
                Ok((rows, counts)) => {
                    twin_counts = counts;
                    tally.check(batch::twin_matches(&rows, &input.batch_rows), || {
                        "staged twin rows differ from the daily job's".to_string()
                    });
                }
                Err(e) => tally.check(false, || format!("staged twin failed: {e}")),
            }
            if rep > 0 {
                jobs.extend(job);
                twin_sums.push(
                    tracer
                        .spans()
                        .iter()
                        .filter(|s| {
                            s.req == rep && s.parent.is_none() && CLOSURE_SPANS.contains(&s.name)
                        })
                        .map(crate::trace::Span::secs)
                        .sum(),
                );
            }
        }
        let runs: Vec<f64> = jobs.iter().map(|j| j.run_s).collect();
        let run_s = stats::median(&runs);
        board.set("daily_job.run_s", run_s);
        board.set(
            "minispark.rows_cloned",
            jobs.last().map_or(0.0, |j| j.rows_cloned as f64),
        );
        let bi = jobs.last().map_or_else(Vec::new, |j| {
            batch::bi_loop(&j.built, args.scale.bi_queries, tally)
        });
        board.median("minispark.bi_query_p50_us", &bi);
        drop(jobs);

        for (metric, count) in [
            ("simfleet.samples", twin_counts.samples),
            ("cloudbot.collect_records", twin_counts.collect_records),
            ("cloudbot.events", twin_counts.events),
            ("cdi-core.quarantined", twin_counts.quarantined),
            ("minispark.table_bytes", twin_counts.table_bytes),
        ] {
            board.set(metric, count as f64);
        }
        for (metric, span) in [
            ("simfleet.series_s", "simfleet.series"),
            ("cloudbot.collect_s", "cloudbot.collect"),
            ("cloudbot.extract_s", "cloudbot.extract"),
            ("cdi-core.derive_s", "cdi-core.derive"),
            ("cdi-core.weights_s", "cdi-core.weights"),
            ("cdi-core.vm_cdi_s", "cdi-core.vm_cdi"),
            ("minispark.eventlog_scan_s", "minispark.eventlog_scan"),
            ("minispark.shuffle_s", "minispark.shuffle"),
            ("minispark.table_build_s", "minispark.table_build"),
            ("minispark.save_packed_s", "minispark.save_packed"),
            ("minispark.load_packed_s", "minispark.load_packed"),
        ] {
            board.set(metric, tracer.total_s(span) / twin_reps as f64);
        }

        // Half of a collect is first-touch page faults, whose cost moves by
        // ±10 % from one repetition to the next on this kind of VM; the
        // least disturbed repetition of each side is what the closure
        // compares. `run` holds the ratio to ROADMAP's 0.9–1.1.
        let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let closure_ratio = least(&twin_sums) / least(&runs);
        board.set("daily_job.closure_ratio", closure_ratio);
        for span in [
            "cloudbot.collect",
            "cloudbot.extract",
            "cdi-core.derive",
            "minispark.shuffle",
        ] {
            self.span_allocs(span, twin_reps as f64);
        }
    }
}

/// The staged twin's spans whose sum must add up to `daily_job::run`.
const CLOSURE_SPANS: [&str; 8] = [
    "cloudbot.collect",
    "cloudbot.extract",
    "minispark.eventlog_scan",
    "minispark.shuffle",
    "cdi-core.derive",
    "cdi-core.weights",
    "cdi-core.vm_cdi",
    "minispark.table_build",
];

/// Chunks of the traced live stream the standalone replays run over: the
/// first day of the saturating stream, or the whole paced stream.
const STANDALONE_CHUNKS: usize = 288;

#[derive(Serialize)]
struct TraceFile {
    context: Context,
    workload: &'static str,
    spans: Vec<crate::trace::Span>,
}

fn write_trace(dir: &Path, args: &RunArgs, tracer: &Tracer) {
    let file = TraceFile {
        context: Context::gather(args.seed, &args.scale),
        workload: args.workload.name,
        spans: tracer.spans().to_vec(),
    };
    let path = dir.join(format!("trace.{}.json", args.workload.name));
    let written = std::fs::create_dir_all(dir)
        .map_err(|e| e.to_string())
        .and_then(|()| serde_json::to_string(&file).map_err(|e| e.to_string()))
        .and_then(|json| std::fs::write(&path, json).map_err(|e| e.to_string()));
    if let Err(e) = written {
        eprintln!("cdi-perf: could not write {}: {e}", path.display());
    }
}
