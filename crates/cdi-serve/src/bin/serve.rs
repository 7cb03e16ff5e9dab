//! The `serve` binary: stand up a live CDI service over TCP.
//!
//! ```text
//! serve [--addr HOST:PORT] [--shards N] [--workers N] [--demo]
//! ```
//!
//! With `--demo`, a small deterministic simfleet world is built, a few
//! faults are injected, and one simulated day is streamed through the
//! service before serving — so `Point`/`TopK`/`Rollup` queries have
//! something to answer immediately. The demo then self-connects in *both*
//! wire dialects — JSON lines and cdipack binary frames — and checks they
//! answer the same top-K, so a fresh checkout demonstrates the negotiated
//! wire end-to-end. Without `--demo` the service starts empty and is
//! populated over the wire with `Ingest`/`Advance` requests.
//!
//! Speak to it in JSON lines, e.g.:
//!
//! ```text
//! {"TopK":{"k":3,"category":"Performance"}}
//! {"Rollup":{"scope":{"Region":"r1"}}}
//! "Shutdown"
//! ```
//!
//! (Variants without a payload — `Flush`, `Metrics`, `Snapshot`,
//! `Diagnose`, `Shutdown` — are bare JSON strings on the wire.) Or lead
//! with [`cdi_serve::cdipack::WIRE_MAGIC`] and speak varint-framed binary
//! (see `cdi_serve::cdipack` for the frame layout). This binary serves
//! without a diagnosis layer, so `Diagnose` answers a clean `Error`;
//! embedders attach one with [`cdi_serve::serve_with_diag`] (the
//! `outage-diag` crate provides the provider).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;

use cdi_core::event::Category;
use cdi_serve::cdipack;
use cdi_serve::proto::{Request, Response};
use cdi_serve::{serve, CdiService, ServeConfig};
use cloudbot::feed::LiveFeed;
use cloudbot::DailyPipeline;
use simfleet::faults::{FaultInjection, FaultKind, FaultTarget};
use simfleet::world::SimWorld;
use simfleet::{Fleet, FleetConfig};

const HOUR: i64 = 3_600_000;
const MIN: i64 = 60_000;

struct Args {
    addr: String,
    shards: usize,
    workers: usize,
    demo: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { addr: "127.0.0.1:7070".to_string(), shards: 4, workers: 4, demo: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => {
                args.addr = it.next().ok_or("--addr needs a HOST:PORT value")?;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                args.shards =
                    v.parse().map_err(|e| format!("bad --shards value '{v}': {e}"))?;
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                args.workers =
                    v.parse().map_err(|e| format!("bad --workers value '{v}': {e}"))?;
            }
            "--demo" => args.demo = true,
            "--help" | "-h" => {
                return Err("usage: serve [--addr HOST:PORT] [--shards N] [--workers N] [--demo]"
                    .to_string())
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

/// A small two-region fleet with a handful of injected faults.
fn demo_world() -> SimWorld {
    let fleet = Fleet::build(&FleetConfig {
        regions: vec!["r1".into(), "r2".into()],
        azs_per_region: 2,
        clusters_per_az: 1,
        ncs_per_cluster: 2,
        vms_per_nc: 4,
        nc_cores: 16,
        machine_models: vec!["modelA".into()],
        arch: simfleet::DeploymentArch::Hybrid,
    });
    let mut world = SimWorld::new(fleet, 7);
    world.inject(FaultInjection::new(
        FaultKind::VmDown,
        FaultTarget::Vm(0),
        2 * HOUR,
        2 * HOUR + 45 * MIN,
    ));
    world.inject(FaultInjection::new(
        FaultKind::SlowIo { factor: 8.0 },
        FaultTarget::Vm(5),
        6 * HOUR,
        7 * HOUR,
    ));
    world.inject(FaultInjection::new(
        FaultKind::NicFlapping,
        FaultTarget::Nc(3),
        10 * HOUR,
        10 * HOUR + 30 * MIN,
    ));
    world
}

/// Self-connect in each wire dialect, ask both for the same top-K, and
/// verify the answers agree — the negotiated wire, demonstrated live.
fn demo_exercise_both_dialects(addr: std::net::SocketAddr) -> Result<(), String> {
    let req = Request::TopK { k: 3, category: Category::Performance };

    // Dialect 1: JSON lines.
    let json_stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut json_reader =
        BufReader::new(json_stream.try_clone().map_err(|e| e.to_string())?);
    let mut json_writer = json_stream;
    json_writer.set_nodelay(true).map_err(|e| e.to_string())?;
    // Line and newline in one write: a newline sent on its own waits
    // (Nagle) for the server's delayed ACK of the line.
    let line = serde_json::to_string(&req).map_err(|e| e.to_string())? + "\n";
    json_writer.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    let mut reply = String::new();
    json_reader.read_line(&mut reply).map_err(|e| e.to_string())?;
    let json_resp: Response = serde_json::from_str(&reply).map_err(|e| e.to_string())?;

    // Dialect 2: cdipack frames behind the wire magic.
    let mut pack_stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    pack_stream.set_nodelay(true).map_err(|e| e.to_string())?;
    pack_stream.write_all(&cdipack::WIRE_MAGIC).map_err(|e| e.to_string())?;
    cdipack::write_frame(&mut pack_stream, &cdipack::encode_request(&req))
        .map_err(|e| e.to_string())?;
    let payload = cdipack::read_frame(&mut pack_stream)
        .map_err(|e| e.to_string())?
        .ok_or("cdipack demo connection closed early")?;
    let pack_resp = cdipack::decode_response(&payload).map_err(|e| e.to_string())?;

    match (&json_resp, &pack_resp) {
        (Response::TopK { entries: a }, Response::TopK { entries: b }) if a == b => {
            println!("demo: both dialects agree on top-{} ({} entries)", 3, a.len());
            Ok(())
        }
        other => Err(format!("demo: dialects disagreed: {other:?}")),
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let cfg = ServeConfig { shards: args.shards, ..ServeConfig::default() };
    let world = demo_world();
    let service =
        CdiService::new(cfg).map_err(|e| e.to_string())?.with_fleet_routing(&world.fleet);

    if args.demo {
        let pipeline = DailyPipeline::default();
        let feed = LiveFeed::build(&pipeline, &world, 0, 24 * HOUR, 15 * MIN)
            .map_err(|e| e.to_string())?;
        for batch in &feed.batches {
            for (target, span) in &batch.spans {
                service.ingest(*target, span.clone());
            }
            service.advance_watermark(batch.watermark).map_err(|e| e.to_string())?;
        }
        service.flush();
        println!(
            "demo: streamed one simulated day ({} spans, {} targets)",
            feed.total_spans(),
            service.target_count()
        );
    }

    let fleet = Arc::new(world.fleet.clone());
    let demo = args.demo;
    let handle = serve(Arc::new(service), Some(fleet), &args.addr, args.workers)
        .map_err(|e| e.to_string())?;
    println!(
        "cdi-serve listening on {} (JSON lines, or cdipack frames after the \
         4-byte magic; send \"Shutdown\" to stop)",
        handle.addr()
    );
    if demo {
        demo_exercise_both_dialects(handle.addr())?;
    }
    handle.join();
    println!("cdi-serve stopped");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
