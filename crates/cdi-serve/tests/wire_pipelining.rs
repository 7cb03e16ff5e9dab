//! The reply path over real sockets, in both dialects: closed-loop round
//! trips cost a loopback round trip (not a delayed-ACK timer), pipelined
//! requests are answered in order, a reply is never held back while the
//! server waits for the rest of the next request, and the last reply of a
//! connection arrives before its close.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdi_core::event::{Category, EventSpan, Target};
use cdi_serve::cdipack::{self, WIRE_MAGIC};
use cdi_serve::proto::{Request, Response};
use cdi_serve::{serve, CdiService, ServeConfig, ServerHandle};

const MIN: i64 = 60_000;
const VMS: u64 = 40;

/// How a test speaks one dialect: connect, put a request on the wire
/// format, take one reply off a reader.
#[derive(Clone, Copy)]
struct Dialect {
    preamble: &'static [u8],
    encode: fn(&Request) -> Vec<u8>,
    read: fn(&mut BufReader<TcpStream>) -> Option<Response>,
}

const CDIPACK: Dialect = Dialect {
    preamble: &WIRE_MAGIC,
    encode: |req| {
        let mut out = Vec::new();
        cdipack::write_frame(&mut out, &cdipack::encode_request(req)).unwrap();
        out
    },
    read: |r| {
        let payload = cdipack::read_frame(r).unwrap()?;
        Some(cdipack::decode_response(&payload).unwrap())
    },
};

const JSON: Dialect = Dialect {
    preamble: b"",
    encode: |req| {
        let mut line = serde_json::to_string(req).unwrap().into_bytes();
        line.push(b'\n');
        line
    },
    read: |r| {
        let mut line = String::new();
        (r.read_line(&mut line).unwrap() > 0).then(|| serde_json::from_str(&line).unwrap())
    },
};

/// A server over a service that tracks `VMS` VMs at a positive watermark.
fn start() -> ServerHandle {
    let service =
        Arc::new(CdiService::new(ServeConfig { shards: 2, ..ServeConfig::default() }).unwrap());
    for vm in 0..VMS {
        let span = EventSpan::new("e", Category::Performance, 0, MIN, 0.5);
        service.ingest(Target::Vm(vm), span);
    }
    service.advance_watermark(10 * MIN).unwrap();
    service.flush();
    serve(service, None, "127.0.0.1:0", 2).unwrap()
}

/// Connect in `dialect`. Reads time out, so a withheld reply fails the
/// test instead of hanging it.
fn connect(addr: SocketAddr, dialect: Dialect) -> (TcpStream, BufReader<TcpStream>) {
    let mut writer = TcpStream::connect(addr).unwrap();
    writer.set_nodelay(true).unwrap();
    writer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    writer.write_all(dialect.preamble).unwrap();
    let reader = BufReader::new(writer.try_clone().unwrap());
    (writer, reader)
}

fn point(vm: u64) -> Request {
    Request::Point { target: Target::Vm(vm) }
}

fn is_point_of(reply: Option<Response>, vm: u64) -> bool {
    matches!(reply, Some(Response::Point { found: Some(cdi) }) if cdi.target == Target::Vm(vm))
}

#[test]
fn closed_loop_round_trips_do_not_wait_out_a_delayed_ack() {
    let mut handle = start();
    for dialect in [CDIPACK, JSON] {
        let (mut writer, mut reader) = connect(handle.addr(), dialect);
        let began = Instant::now();
        for i in 0..200 {
            writer.write_all(&(dialect.encode)(&point(i % VMS))).unwrap();
            assert!(is_point_of((dialect.read)(&mut reader), i % VMS));
        }
        // 200 × 44 ms = 8.8 s with a reply in two writes; ~10 ms with one.
        let took = began.elapsed();
        assert!(took < Duration::from_secs(2), "200 round trips took {took:?}");
    }
    handle.stop();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let mut handle = start();
    for dialect in [CDIPACK, JSON] {
        let (mut writer, mut reader) = connect(handle.addr(), dialect);
        let burst: Vec<u8> = (0..VMS).flat_map(|vm| (dialect.encode)(&point(vm))).collect();
        writer.write_all(&burst).unwrap();
        for vm in 0..VMS {
            assert!(is_point_of((dialect.read)(&mut reader), vm), "reply {vm}");
        }
    }
    handle.stop();
}

#[test]
fn a_reply_is_not_held_back_while_the_next_request_is_incomplete() {
    let mut handle = start();
    for dialect in [CDIPACK, JSON] {
        let (mut writer, mut reader) = connect(handle.addr(), dialect);
        let next = (dialect.encode)(&point(2));
        let (half, rest) = next.split_at(next.len() / 2);
        let mut first = (dialect.encode)(&point(1));
        first.extend_from_slice(half);
        writer.write_all(&first).unwrap();
        // The server is now blocked mid-request; reply 1 must be here already.
        assert!(is_point_of((dialect.read)(&mut reader), 1));
        writer.write_all(rest).unwrap();
        assert!(is_point_of((dialect.read)(&mut reader), 2));
    }
    handle.stop();
}

#[test]
fn the_last_reply_arrives_before_the_close() {
    // A framing fault pipelined behind a good request: both replies, then EOF.
    let mut handle = start();
    let (mut writer, mut reader) = connect(handle.addr(), CDIPACK);
    let mut burst = (CDIPACK.encode)(&point(3));
    burst.extend([0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
    writer.write_all(&burst).unwrap();
    assert!(is_point_of((CDIPACK.read)(&mut reader), 3));
    assert!(matches!((CDIPACK.read)(&mut reader), Some(Response::Error { .. })));
    assert!((CDIPACK.read)(&mut reader).is_none(), "then EOF");
    handle.stop();

    // `Shutdown` pipelined behind a good request, in each dialect: both
    // replies, then EOF, and the server winds down on its own.
    for dialect in [CDIPACK, JSON] {
        let handle = start();
        let (mut writer, mut reader) = connect(handle.addr(), dialect);
        let mut burst = (dialect.encode)(&point(4));
        burst.extend((dialect.encode)(&Request::Shutdown));
        writer.write_all(&burst).unwrap();
        assert!(is_point_of((dialect.read)(&mut reader), 4));
        assert!(matches!((dialect.read)(&mut reader), Some(Response::ShuttingDown)));
        assert!(handle.is_shutting_down());
        let mut tail = Vec::new();
        reader.read_to_end(&mut tail).unwrap();
        assert!(tail.is_empty(), "then EOF");
        handle.join();
    }
}
