//! Mixed-dialect wire tests: one server, one service, two concurrent
//! clients speaking different dialects — JSON lines and cdipack binary
//! frames — must see the same state and get value-identical answers.
//! Also the wire-level corruption contract: a garbage payload in a valid
//! frame is answered with a framed `Error` and the connection survives; a
//! broken frame (oversized length, wrong wire version) is answered once
//! and the connection closes. Never a panic, never a hung client.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use cdi_core::event::{Category, EventSpan, Target};
use cdi_serve::cdipack::{self, WIRE_MAGIC};
use cdi_serve::proto::{IngestItem, Request, Response};
use cdi_serve::{serve, CdiService, ServeConfig, ServiceSnapshot};

const MIN: i64 = 60_000;

struct JsonClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl JsonClient {
    fn connect(addr: std::net::SocketAddr) -> JsonClient {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        JsonClient { reader, writer: stream }
    }

    fn call(&mut self, req: &Request) -> Response {
        let line = serde_json::to_string(req).unwrap();
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        serde_json::from_str(&reply).unwrap()
    }
}

struct PackClient {
    stream: TcpStream,
}

impl PackClient {
    /// Connect and negotiate the binary dialect by leading with the wire
    /// magic.
    fn connect(addr: std::net::SocketAddr) -> PackClient {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&WIRE_MAGIC).unwrap();
        PackClient { stream }
    }

    fn call(&mut self, req: &Request) -> Response {
        cdipack::write_frame(&mut self.stream, &cdipack::encode_request(req)).unwrap();
        self.read_response().expect("server closed the connection")
    }

    /// One framed response, or `None` on clean EOF.
    fn read_response(&mut self) -> Option<Response> {
        let payload = cdipack::read_frame(&mut self.stream).unwrap()?;
        Some(cdipack::decode_response(&payload).unwrap())
    }
}

fn span(name: &str, cat: Category, s: i64, e: i64, w: f64) -> EventSpan {
    EventSpan::new(name, cat, s, e, w)
}

#[test]
fn both_dialects_serve_one_state_with_identical_answers() {
    let service = Arc::new(CdiService::new(ServeConfig { shards: 2, ..ServeConfig::default() }).unwrap());
    let handle = serve(Arc::clone(&service), None, "127.0.0.1:0", 2).unwrap();
    let mut json = JsonClient::connect(handle.addr());
    let mut pack = PackClient::connect(handle.addr());

    // Binary batch ingest: one frame, many spans, dictionary-compressed.
    let items: Vec<IngestItem> = (0..50u64)
        .map(|i| IngestItem {
            target: Target::Vm(i % 10),
            span: span(
                if i % 2 == 0 { "nic_flapping" } else { "slow_io" },
                if i % 2 == 0 { Category::Unavailability } else { Category::Performance },
                (i as i64) * MIN / 10,
                (i as i64) * MIN / 10 + MIN,
                0.5,
            ),
        })
        .collect();
    match pack.call(&Request::IngestBatch { items }) {
        Response::Ingested { accepted, shed } => {
            assert_eq!(accepted, 50);
            assert_eq!(shed, 0);
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // JSON ingest on the same service: both dialects feed one state.
    match json.call(&Request::Ingest {
        target: Target::Vm(3),
        span: span("host_down", Category::Unavailability, 0, 5 * MIN, 1.0),
    }) {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 1),
        other => panic!("unexpected reply {other:?}"),
    }

    assert!(matches!(pack.call(&Request::Advance { watermark: 60 * MIN }), Response::Ok));
    assert!(matches!(pack.call(&Request::Flush), Response::Ok));

    // The same point query through both dialects answers identically —
    // bit-for-bit, not approximately: one state, two encodings.
    let p_json = match json.call(&Request::Point { target: Target::Vm(3) }) {
        Response::Point { found: Some(cdi) } => cdi,
        other => panic!("unexpected reply {other:?}"),
    };
    let p_pack = match pack.call(&Request::Point { target: Target::Vm(3) }) {
        Response::Point { found: Some(cdi) } => cdi,
        other => panic!("unexpected reply {other:?}"),
    };
    assert_eq!(p_json, p_pack);

    // Full snapshots through both dialects carry the identical state
    // (metrics counters advance between calls, so compare the state).
    let s_json = match json.call(&Request::Snapshot) {
        Response::Snapshot { snapshot } => snapshot,
        other => panic!("unexpected reply {other:?}"),
    };
    let s_pack = match pack.call(&Request::Snapshot) {
        Response::Snapshot { snapshot } => snapshot,
        other => panic!("unexpected reply {other:?}"),
    };
    assert_eq!(s_json.period_start, s_pack.period_start);
    assert_eq!(s_json.watermark, s_pack.watermark);
    assert_eq!(s_json.targets, s_pack.targets);
    assert_eq!(s_pack.targets.len(), 10);

    // Shutdown over the binary dialect works like the JSON one. Drop the
    // JSON connection first so its handler thread observes EOF and can
    // exit — `join` waits for every in-flight connection.
    assert!(matches!(pack.call(&Request::Shutdown), Response::ShuttingDown));
    assert!(handle.is_shutting_down());
    drop(json);
    drop(pack);
    handle.join();
}

/// The wire decodes a negative duration, so an inverted span ahead of the
/// watermark reaches the accumulator. It must be turned away there — the
/// rule `restore` applies — or the state it sits in can never again be
/// respawned from a delta, re-sharded, or restored from a snapshot.
#[test]
fn an_inverted_span_is_rejected_at_ingest_and_poisons_nothing() {
    // An epoch cut after every applied batch: the respawn below replays
    // deltas that contain the target.
    let cfg = || ServeConfig { shards: 2, checkpoint_every: 1, ..ServeConfig::default() };
    let service = Arc::new(CdiService::new(cfg()).unwrap());
    let control = CdiService::new(cfg()).unwrap();
    let mut handle = serve(Arc::clone(&service), None, "127.0.0.1:0", 1).unwrap();
    let mut pack = PackClient::connect(handle.addr());

    let vm = Target::Vm(1);
    let healthy = span("host_down", Category::Unavailability, 0, 10 * MIN, 1.0);
    let inverted = EventSpan {
        name: "host_down".into(),
        category: Category::Unavailability,
        start: 50 * MIN,
        end: 40 * MIN,
        weight: 0.5,
    };
    control.ingest(vm, healthy.clone());
    control.advance_watermark(30 * MIN).unwrap();
    control.flush();
    let expect = control.point(vm).unwrap();
    assert_eq!(expect.map(|p| p.unavailability), Some(1.0 / 3.0));

    for span in [healthy, inverted] {
        let reply = pack.call(&Request::Ingest { target: vm, span });
        assert!(matches!(reply, Response::Ingested { accepted: 1, shed: 0 }), "{reply:?}");
    }
    assert!(matches!(pack.call(&Request::Advance { watermark: 30 * MIN }), Response::Ok));
    assert!(matches!(pack.call(&Request::Flush), Response::Ok));
    assert_eq!(service.point(vm).unwrap(), expect);
    assert_eq!(service.metrics().rejected, 1);

    // Kill → supervise: the crash lands behind the epoch cuts, so the
    // respawn rebuilds the target from the delta chain.
    assert!(service.kill_shard(service.shard_of(vm)));
    while service.supervise() == 0 {
        std::thread::yield_now();
    }
    service.flush();
    assert_eq!(service.point(vm).unwrap(), expect);

    service.resize(3).unwrap();
    assert_eq!(service.point(vm).unwrap(), expect);

    let snap = ServiceSnapshot::from_pack(&service.snapshot().to_pack()).unwrap();
    let restored = CdiService::restore(cfg(), &snap).unwrap();
    assert_eq!(restored.point(vm).unwrap(), expect);
    assert_eq!(restored.metrics().rejected, 1);
    assert_eq!(service.metrics().rejected, 1);

    drop(pack);
    handle.stop();
}

#[test]
fn garbage_payload_gets_a_framed_error_and_the_connection_survives() {
    let service = Arc::new(CdiService::new(ServeConfig::default()).unwrap());
    let mut handle = serve(service, None, "127.0.0.1:0", 1).unwrap();
    let mut pack = PackClient::connect(handle.addr());

    // A well-formed frame whose payload is not a request: the stream is
    // still in sync, so the server answers and keeps serving.
    cdipack::write_frame(&mut pack.stream, b"\xFFnot a request").unwrap();
    assert!(matches!(pack.read_response(), Some(Response::Error { .. })));
    assert!(matches!(pack.call(&Request::Metrics), Response::Metrics { .. }));

    // An oversized frame declaration: framing is unrecoverable, so the
    // server answers once and closes.
    let mut w = minispark::pack::PackWriter::new();
    w.put_varint(u64::MAX / 2);
    pack.stream.write_all(w.as_slice()).unwrap();
    assert!(matches!(pack.read_response(), Some(Response::Error { .. })));
    assert!(pack.read_response().is_none(), "connection must be closed");

    handle.stop();
}

#[test]
fn unsupported_wire_version_is_refused_cleanly() {
    let service = Arc::new(CdiService::new(ServeConfig::default()).unwrap());
    let mut handle = serve(service, None, "127.0.0.1:0", 1).unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // Same leading byte (so the binary dialect is negotiated), wrong
    // version byte.
    stream.write_all(&[WIRE_MAGIC[0], WIRE_MAGIC[1], WIRE_MAGIC[2], 0x7F]).unwrap();
    stream.flush().unwrap();
    let payload = cdipack::read_frame(&mut stream).unwrap().expect("a framed refusal");
    assert!(matches!(
        cdipack::decode_response(&payload).unwrap(),
        Response::Error { .. }
    ));
    assert!(cdipack::read_frame(&mut stream).unwrap().is_none(), "then EOF");

    handle.stop();
}
