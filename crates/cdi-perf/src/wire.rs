//! The load generator: a live service behind the real TCP server, and
//! the clients that drive it — saturating, paced, querying, controlling.
//!
//! The generator never uses more than two connections at once (the
//! server has [`spec::SERVER_WORKERS`] handler threads). Clients set
//! `TCP_NODELAY` and write each request group with one `write`, so any
//! stall that shows up belongs to the server's side of the socket.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdi_core::event::{Category, Target};
use cdi_serve::proto::{DrillOp, Request, Response};
use cdi_serve::snapshot::ServiceSnapshot;
use cdi_serve::{cdipack, serve, CdiService, ServerHandle};
use simfleet::{Fleet, Scope};

use crate::input::{self, frame, Oracle, SplitMix, Stream};
use crate::spec;
use crate::stats;

/// Operations attempted and failed. Any `Response::Error`, I/O error,
/// undecodable reply or failed correctness check counts as failed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Failed operations that were a `Response::Error` reply.
    pub error_replies: u64,
    /// Why, for the first few failures.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation that succeeded iff `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Count one reply: an error of any kind is a failed operation.
    pub fn reply<'a>(&mut self, reply: &'a Result<Response, String>) -> Option<&'a Response> {
        self.check(reply.is_ok(), || {
            reply.as_ref().err().cloned().unwrap_or_default()
        });
        self.error_replies += u64::from(reply.as_ref().is_err_and(|e| e.starts_with(ERROR_REPLY)));
        reply.as_ref().ok()
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.error_replies += other.error_replies;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

const ERROR_REPLY: &str = "error reply";

/// Read and decode one framed reply. A closed stream, a framing fault, an
/// undecodable payload and a `Response::Error` all come back as `Err`, so
/// the caller counts them instead of dropping them.
pub fn read_reply(r: &mut impl Read) -> Result<Response, String> {
    let payload = cdipack::read_frame(r)
        .map_err(|e| format!("unreadable reply: {e}"))?
        .ok_or("server closed the connection")?;
    match cdipack::decode_response(&payload).map_err(|e| format!("undecodable reply: {e}"))? {
        Response::Error { message } => Err(format!("{ERROR_REPLY}: {message}")),
        ok => Ok(ok),
    }
}

/// A live service behind the real server on an ephemeral loopback port.
#[derive(Debug)]
pub struct Rig {
    /// The service, for in-process checks after the clients are done.
    pub svc: Arc<CdiService>,
    handle: ServerHandle,
}

impl Rig {
    /// Start a fresh service and server in the fixed shape.
    pub fn start(fleet: &Arc<Fleet>) -> Rig {
        let svc = input::new_service(fleet, spec::SHARDS);
        let handle = serve(
            Arc::clone(&svc),
            Some(Arc::clone(fleet)),
            "127.0.0.1:0",
            spec::SERVER_WORKERS,
        )
        .expect("loopback bind");
        Rig { svc, handle }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Stop the server (every client connection must be closed by now)
    /// and hand the service back.
    pub fn stop(mut self) -> Arc<CdiService> {
        self.handle.stop();
        self.svc
    }
}

/// One cdipack client connection.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect and negotiate the cdipack dialect.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let mut writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.write_all(&cdipack::WIRE_MAGIC)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Send pre-framed requests with one write, then read `replies`
    /// replies, counting each in `tally`. Returns the last reply.
    pub fn call(&mut self, bytes: &[u8], replies: usize, tally: &mut Tally) -> Option<Response> {
        if let Err(e) = self.writer.write_all(bytes) {
            tally.check(false, || format!("write failed: {e}"));
            return None;
        }
        let mut last = None;
        for _ in 0..replies {
            let reply = read_reply(&mut self.reader);
            last = tally.reply(&reply).cloned();
        }
        last
    }

    /// Split into the two halves a pipelined client hands to two threads.
    pub fn split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }
}

/// Conservation and agreement with the oracle, checked in process after
/// the clients are done. Returns the largest |Δ| against the oracle.
pub fn check_final_state(svc: &CdiService, oracle: &Oracle, tally: &mut Tally) -> f64 {
    svc.flush();
    let m = svc.metrics();
    // ingested = applied + shed + late + rejected: nothing shed or
    // rejected, nothing late that the sequential oracle did not also see,
    // and after the flush above everything the oracle accepted is applied.
    let lossless =
        m.spans_shed == 0 && m.rejected == 0 && (m.late_dropped, m.late_clipped) == oracle.late;
    tally.check(lossless && m.spans_ingested == oracle.deliveries, || {
        format!(
            "conservation: ingested {} of {}, shed {} late_dropped {} late_clipped {} rejected {}",
            m.spans_ingested,
            oracle.deliveries,
            m.spans_shed,
            m.late_dropped,
            m.late_clipped,
            m.rejected
        )
    });
    let delta = oracle.max_abs_delta(svc);
    // DESIGN's current tolerance between shard counts; do not tighten here.
    tally.check(delta.is_some_and(|d| d <= 1e-9), || {
        format!("final CDI vs oracle: {delta:?}")
    });
    delta.unwrap_or(f64::INFINITY)
}

/// Stream `stream` down one connection of a fresh service, fully
/// pipelined: this thread writes, a second one reads every reply. Returns
/// the seconds from the first byte written to the `Flush` reply read.
pub fn saturate(fleet: &Arc<Fleet>, stream: &Stream, oracle: &Oracle, tally: &mut Tally) -> f64 {
    let rig = Rig::start(fleet);
    let start = Instant::now();
    let mut wall_s = f64::NAN;
    match Conn::open(rig.addr()) {
        Err(e) => tally.check(false, || format!("connect failed: {e}")),
        Ok(conn) => {
            let (mut writer, mut reader) = conn.split();
            let replies = stream.replies();
            let read = std::thread::scope(|s| {
                let reader = s.spawn(move || {
                    let mut t = Tally::default();
                    for _ in 0..replies {
                        let reply = read_reply(&mut reader);
                        let fine = matches!(
                            t.reply(&reply),
                            Some(Response::Ok | Response::Ingested { shed: 0, .. })
                        );
                        if !fine {
                            // Out of step: unblock the writer, the rest would only hang.
                            let _ = reader.get_ref().shutdown(Shutdown::Both);
                            break;
                        }
                    }
                    (t, Instant::now())
                });
                for chunk in &stream.chunks {
                    if writer.write_all(chunk).is_err() {
                        break;
                    }
                }
                reader.join().expect("reader thread does not panic")
            });
            let (t, done) = read;
            tally.check(t.attempted == replies as u64, || {
                format!("{} of {replies} replies read", t.attempted)
            });
            tally.absorb(t);
            wall_s = (done - start).as_secs_f64();
        }
    }
    let svc = rig.stop();
    check_final_state(&svc, oracle, tally);
    wall_s
}

/// How long before a tick is due the pacer stops sleeping and spins.
const SPIN: Duration = Duration::from_millis(1);

/// Open-loop pacer: call `send(i)` for `i` in `0..n`, tick `i` due at
/// `start + i·period`. A tick is never sent early; when `send` stalls,
/// later ticks go out late but keep their due times, so latencies timed
/// from the due time inherit the stall. Returns each tick's lateness
/// (sent − due).
pub fn pace(
    start: Instant,
    n: usize,
    period: Duration,
    mut send: impl FnMut(usize),
) -> Vec<Duration> {
    let mut late = Vec::with_capacity(n);
    for i in 0..n {
        let due = start + period * i as u32;
        // Sleep to just short of the due time, then spin: a sleeping
        // thread wakes tens to hundreds of µs late, and that would be
        // charged to the system as latency.
        let now = Instant::now();
        if now + SPIN < due {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        late.push(Instant::now().saturating_duration_since(due));
        send(i);
    }
    late
}

/// What a paced feed measured.
#[derive(Debug, Clone, Default)]
pub struct Paced {
    /// Per tick: due time → `Flush` reply, µs. Ticks whose reply never
    /// came are absent (and counted failed).
    pub visible_us: Vec<f64>,
    /// Per tick: how late the generator sent it, µs.
    pub late_us: Vec<f64>,
}

/// Send `chunks` (three frames each, ending in `Flush`) at a fixed rate on
/// its own connection; a reader thread stamps each tick's `Flush` reply.
/// `deadline` bounds how long replies are awaited after the schedule ends.
pub fn paced_feed(
    addr: SocketAddr,
    chunks: &[Vec<u8>],
    period: Duration,
    deadline: Duration,
    tally: &mut Tally,
) -> Paced {
    let conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.check(false, || format!("connect failed: {e}"));
            return Paced::default();
        }
    };
    let (mut writer, mut reader) = conn.split();
    let n = chunks.len();
    let start = Instant::now();
    let give_up = start + period * n as u32 + deadline;
    let (late, (t, done)) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut t = Tally::default();
            let mut done = Vec::with_capacity(n);
            'ticks: for _ in 0..n {
                for _ in 0..3 {
                    let left = give_up.saturating_duration_since(Instant::now());
                    if left.is_zero() || reader.get_ref().set_read_timeout(Some(left)).is_err() {
                        break 'ticks;
                    }
                    if t.reply(&read_reply(&mut reader)).is_none() {
                        break 'ticks;
                    }
                }
                done.push(Instant::now());
            }
            (t, done)
        });
        let late = pace(start, n, period, |i| {
            let _ = writer.write_all(&chunks[i]);
        });
        let out = reader.join().expect("reader thread does not panic");
        // Unread replies of an abandoned schedule must not keep the
        // server's handler alive.
        let _ = writer.shutdown(Shutdown::Both);
        (late, out)
    });
    tally.absorb(t);
    Paced {
        visible_us: done
            .iter()
            .enumerate()
            .map(|(i, d)| {
                d.saturating_duration_since(start + period * i as u32)
                    .as_secs_f64()
                    * 1e6
            })
            .collect(),
        late_us: late.iter().map(|d| d.as_secs_f64() * 1e6).collect(),
    }
}

/// Round-trip samples of the query cycle, µs.
#[derive(Debug, Clone, Default)]
pub struct QuerySamples {
    /// `Point` of a seeded known VM.
    pub point_us: Vec<f64>,
    /// `TopK { k: 10 }`, categories in rotation.
    pub topk_us: Vec<f64>,
    /// `Rollup` over region, AZ, cluster in rotation.
    pub rollup_us: Vec<f64>,
}

/// `Point`s per `TopK` and `Rollup` in the query cycle.
const POINTS_PER_CYCLE: usize = 8;

/// Closed-loop query cycle on its own connection until `stop` is raised:
/// eight `Point`s, one `TopK`, one `Rollup`, repeated. Replies are
/// checked: the point answers for the asked target, top-K comes sorted,
/// the rollup covers exactly the scope's VMs.
pub fn query_cycle(
    addr: SocketAddr,
    fleet: &Fleet,
    seed: u64,
    stop: &AtomicBool,
    tally: &mut Tally,
) -> QuerySamples {
    let mut out = QuerySamples::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.check(false, || format!("connect failed: {e}"));
            return out;
        }
    };
    let mut mix = SplitMix(seed ^ 0x51_75_65_72_79);
    let vms = fleet.vms().len() as u64;
    let nc0 = &fleet.ncs()[0];
    let scopes = [
        Scope::Region(nc0.region.clone()),
        Scope::Az(nc0.az.clone()),
        Scope::Cluster(nc0.cluster.clone()),
    ];
    // Queries have no answer before the first tick has committed on every
    // shard (no service time has elapsed); wait for it outside the
    // measurement. A rollup reads every shard's watermark.
    let probe = frame(&Request::Rollup {
        scope: scopes[0].clone(),
    });
    let ready_by = Instant::now() + Duration::from_secs(5);
    while conn.call(&probe, 1, &mut Tally::default()).is_none()
        && !stop.load(Ordering::SeqCst)
        && Instant::now() < ready_by
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut round = 0usize;
    while !stop.load(Ordering::SeqCst) {
        for _ in 0..POINTS_PER_CYCLE {
            let target = Target::Vm(mix.below(vms));
            let t = Instant::now();
            let reply = conn.call(&frame(&Request::Point { target }), 1, tally);
            out.point_us.push(t.elapsed().as_secs_f64() * 1e6);
            // A VM the feed has not touched yet answers `found: None`.
            tally.check(
                matches!(&reply, Some(Response::Point { found }) if found.is_none_or(|p| p.target == target)),
                || format!("point reply for {target}: {reply:?}"),
            );
        }
        let category = Category::ALL[round % 3];
        let t = Instant::now();
        let reply = conn.call(&frame(&Request::TopK { k: 10, category }), 1, tally);
        out.topk_us.push(t.elapsed().as_secs_f64() * 1e6);
        tally.check(
            matches!(&reply, Some(Response::TopK { entries })
                if entries.len() <= 10 && entries.windows(2).all(|w| w[0].score >= w[1].score)),
            || format!("top-K reply not sorted: {reply:?}"),
        );
        let scope = &scopes[round % 3];
        let t = Instant::now();
        let reply = conn.call(
            &frame(&Request::Rollup {
                scope: scope.clone(),
            }),
            1,
            tally,
        );
        out.rollup_us.push(t.elapsed().as_secs_f64() * 1e6);
        let want = fleet.vms_in(scope).len();
        tally.check(
            matches!(&reply, Some(Response::Rollup { vm_count, .. }) if *vm_count == want),
            || format!("rollup over {scope:?} should cover {want} VMs: {reply:?}"),
        );
        round += 1;
    }
    out
}

/// Latencies of the control operations, ms, each timed from the request
/// being written to the service answering again.
#[derive(Debug, Clone, Default)]
pub struct ControlSamples {
    /// `Resize{3}` and `Resize{2}`: request → `Resized`.
    pub resize_ms: Vec<f64>,
    /// A killed shard's worker has exited; `Supervise` → `Supervised`
    /// with the shard rebuilt from checkpoint, deltas and journal.
    pub respawn_ms: Vec<f64>,
    /// `Snapshot` → `to_pack` → `from_pack` → `restore` at three shards →
    /// first `point` answered.
    pub restore_ms: Vec<f64>,
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Restore `snap` through its packed bytes at [`spec::GROWN_SHARDS`]
/// shards and answer one point; returns the restored service.
pub fn restore_via_pack(snap: &ServiceSnapshot) -> Result<CdiService, String> {
    let decoded = ServiceSnapshot::from_pack(&snap.to_pack()).map_err(|e| e.to_string())?;
    let svc = CdiService::restore(input::serve_config(spec::GROWN_SHARDS), &decoded)
        .map_err(|e| e.to_string())?;
    if let Some(first) = decoded.targets.first() {
        svc.point(first.target).map_err(|e| e.to_string())?;
    }
    Ok(svc)
}

/// How long a killed shard's worker gets to reach the `Crash` in its
/// queue and exit before `Supervise` is sent.
const KILL_SETTLE: Duration = Duration::from_millis(2);

/// Open-loop control schedule: every `period`, the next of five
/// operations in fixed rotation, `ops` in total. Each operation runs on a
/// connection of its own, as an operator's tool would, so a reply is never
/// held back by the delayed-ACK state an earlier operation left behind.
pub fn control_cycle(
    addr: SocketAddr,
    ops: usize,
    period: Duration,
    tally: &mut Tally,
) -> ControlSamples {
    let mut out = ControlSamples::default();
    let kill = frame(&Request::Drill {
        op: DrillOp::KillShard { shard: 0 },
    });
    let supervise = frame(&Request::Drill {
        op: DrillOp::Supervise,
    });
    // Half a period late, so an operation never falls exactly on a tick of
    // the feed (both schedules start together): a kill that coincides with
    // a tick is healed by the write path before `Supervise` can time it.
    pace(Instant::now() + period / 2, ops, period, |i| {
        let open = || Conn::open(addr).map_err(|e| format!("connect failed: {e}"));
        let mut conn = match open() {
            Ok(c) => c,
            Err(e) => return tally.check(false, || e),
        };
        match i % 5 {
            0 => {
                conn.call(&kill, 1, tally);
                std::thread::sleep(KILL_SETTLE);
                conn = match open() {
                    Ok(c) => c,
                    Err(e) => return tally.check(false, || e),
                };
                let t = Instant::now();
                let reply = conn.call(&supervise, 1, tally);
                // The feed's write path heals a dead shard too; when it got
                // there first there was no respawn left to time.
                if matches!(reply, Some(Response::Supervised { respawned: 1.. })) {
                    out.respawn_ms.push(elapsed_ms(t));
                }
            }
            step @ (1 | 2) => {
                let shards = if step == 1 {
                    spec::GROWN_SHARDS
                } else {
                    spec::SHARDS
                };
                let t = Instant::now();
                let reply = conn.call(&frame(&Request::Resize { shards }), 1, tally);
                out.resize_ms.push(elapsed_ms(t));
                tally.check(
                    matches!(&reply, Some(Response::Resized { outcome }) if outcome.to_shards == shards),
                    || format!("resize to {shards}: {reply:?}"),
                );
            }
            3 => {
                let t = Instant::now();
                let reply = conn.call(&frame(&Request::Snapshot), 1, tally);
                let restored = match &reply {
                    Some(Response::Snapshot { snapshot }) => {
                        restore_via_pack(snapshot).map(|svc| (svc, snapshot))
                    }
                    other => Err(format!("snapshot reply: {other:?}")),
                };
                out.restore_ms.push(elapsed_ms(t));
                // Outside the timed part: restored at three shards equals
                // the two-shard source bit for bit.
                tally.check(
                    restored
                        .as_ref()
                        .is_ok_and(|(svc, snap)| svc.snapshot().targets == snap.targets),
                    || format!("restore: {:?}", restored.as_ref().err()),
                );
            }
            _ => {
                conn.call(
                    &frame(&Request::Drill {
                        op: DrillOp::RollingRestart,
                    }),
                    1,
                    tally,
                );
            }
        }
    });
    out
}

/// Idle-server round trips of the smallest request there is: `Point` of a
/// target the service has never seen. µs.
pub fn idle_rtt(fleet: &Arc<Fleet>, samples: usize, tally: &mut Tally) -> Vec<f64> {
    let rig = Rig::start(fleet);
    let mut out = Vec::with_capacity(samples);
    match Conn::open(rig.addr()) {
        Err(e) => tally.check(false, || format!("connect failed: {e}")),
        Ok(mut conn) => {
            let probe = frame(&Request::Point {
                target: Target::Vm(u64::MAX),
            });
            for _ in 0..samples {
                let t = Instant::now();
                conn.call(&probe, 1, tally);
                out.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    rig.stop();
    out
}

/// Ingest-only rate ladder: each step replays a prefix of the paced
/// stream against a fresh service at a fixed rate. A step is sustained
/// when every reply arrives, the highest supported percentile of tick
/// latency stays within [`spec::LADDER_LIMIT`], and the generator's
/// lateness does not grow over the step. Returns the highest sustained
/// rate (0 if none). Diagnostic: errors here are not failed operations,
/// because an unsustained step is cut off on purpose.
pub fn rate_ladder(fleet: &Arc<Fleet>, stream: &Stream, steps: &[(u32, usize)]) -> f64 {
    let mut best = 0.0;
    for &(rate, ticks) in steps {
        let rig = Rig::start(fleet);
        let mut scratch = Tally::default();
        let chunks = stream.prefix(ticks);
        let paced = paced_feed(
            rig.addr(),
            chunks,
            Duration::from_secs(1) / rate,
            Duration::from_secs(1),
            &mut scratch,
        );
        rig.stop();
        let worst = stats::summarize(&paced.visible_us).tail();
        let quarter = (paced.late_us.len() / 4).max(1);
        let early = stats::median(&paced.late_us[..quarter]);
        let tail = stats::median(&paced.late_us[paced.late_us.len() - quarter..]);
        let period_us = 1e6 / f64::from(rate);
        let sustained = paced.visible_us.len() == chunks.len()
            && worst <= spec::LADDER_LIMIT.as_secs_f64() * 1e6
            && tail <= early + period_us;
        if sustained {
            best = f64::max(best, f64::from(rate));
        }
    }
    best
}

/// What the mix phase measured.
#[derive(Debug, Clone, Default)]
pub struct MixRun {
    /// The paced feed.
    pub paced: Paced,
    /// The query connection beside it.
    pub queries: QuerySamples,
}

/// The mix phase: the paced feed on one connection, the closed-loop query
/// cycle on a second one for as long as the feed runs.
pub fn mix_phase(
    fleet: &Arc<Fleet>,
    stream: &Stream,
    oracle: &Oracle,
    period: Duration,
    seed: u64,
    tally: &mut Tally,
) -> MixRun {
    let rig = Rig::start(fleet);
    let addr = rig.addr();
    let stop = AtomicBool::new(false);
    let (paced, queries) = std::thread::scope(|s| {
        let querier = s.spawn(|| {
            let mut t = Tally::default();
            let q = query_cycle(addr, fleet, seed, &stop, &mut t);
            (q, t)
        });
        let paced = paced_feed(addr, &stream.chunks, period, Duration::from_secs(5), tally);
        stop.store(true, Ordering::SeqCst);
        let (q, t) = querier.join().expect("query thread does not panic");
        tally.absorb(t);
        (paced, q)
    });
    tally.check(paced.visible_us.len() == stream.chunks.len(), || {
        format!(
            "{} of {} ticks became visible",
            paced.visible_us.len(),
            stream.chunks.len()
        )
    });
    let svc = rig.stop();
    check_final_state(&svc, oracle, tally);
    MixRun { paced, queries }
}

/// What the churn phase measured.
#[derive(Debug, Clone, Default)]
pub struct ChurnRun {
    /// The paced feed.
    pub paced: Paced,
    /// The control operations beside it.
    pub control: ControlSamples,
}

/// The churn phase: the paced feed on one connection while a control
/// connection kills, resizes, restores and restarts on a fixed schedule.
pub fn churn_phase(
    fleet: &Arc<Fleet>,
    stream: &Stream,
    oracle: &Oracle,
    period: Duration,
    control_period: Duration,
    tally: &mut Tally,
) -> ChurnRun {
    let rig = Rig::start(fleet);
    let addr = rig.addr();
    let ops = ((period * stream.chunks.len() as u32).as_nanos() / control_period.as_nanos().max(1))
        as usize;
    let (paced, control) = std::thread::scope(|s| {
        let controller = s.spawn(|| {
            let mut t = Tally::default();
            let c = control_cycle(addr, ops, control_period, &mut t);
            (c, t)
        });
        let paced = paced_feed(addr, &stream.chunks, period, Duration::from_secs(10), tally);
        let (c, t) = controller.join().expect("control thread does not panic");
        tally.absorb(t);
        (paced, c)
    });
    tally.check(paced.visible_us.len() == stream.chunks.len(), || {
        format!(
            "{} of {} ticks became visible",
            paced.visible_us.len(),
            stream.chunks.len()
        )
    });
    let svc = rig.stop();
    // The rotation ends wherever the schedule does; settle at the fixed
    // width so the final state is compared like with like.
    tally.check(svc.resize(spec::SHARDS).is_ok(), || {
        "final resize failed".to_string()
    });
    // The churned service must equal the undisturbed oracle.
    check_final_state(&svc, oracle, tally);
    ChurnRun { paced, control }
}
