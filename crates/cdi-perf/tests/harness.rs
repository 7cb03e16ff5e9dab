//! The harness's own mechanisms: the percentile helper, the open-loop
//! pacer, seed determinism of the inputs, and failure accounting.

use std::io::Cursor;
use std::time::{Duration, Instant};

use cdi_perf::input::{coarsen, Input};
use cdi_perf::spec::Scale;
use cdi_perf::stats::summarize;
use cdi_perf::trace::Tracer;
use cdi_perf::wire::{pace, read_reply, Tally};
use cdi_serve::cdipack;
use cdi_serve::proto::Response;
use cloudbot::feed::LiveFeed;
use simfleet::scenario::DAY;

#[test]
fn percentile_helper_picks_the_highest_percentile_with_ten_samples_beyond_it() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    let s = summarize(&hundred);
    assert_eq!((s.n, s.median), (100, 50.5));
    assert_eq!(s.top, Some((90.0, 90.0)), "samples 91..=100 lie beyond p90");

    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(summarize(&thousand).top, Some((99.0, 990.0)));

    // Eleven samples support only the lowest one; ten support none.
    let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
    let (pct, value) = summarize(&eleven)
        .top
        .expect("one sample has ten beyond it");
    assert!((pct - 100.0 / 11.0).abs() < 1e-9 && value == 1.0);
    assert_eq!(summarize(&hundred[..10]).top, None);

    // Order of arrival does not matter, and NaN cannot poison the sort.
    let mut shuffled = hundred.clone();
    shuffled.reverse();
    assert_eq!(summarize(&shuffled), s);
}

#[test]
fn pacer_times_from_due_time_so_later_ticks_inherit_a_stall() {
    let period = Duration::from_millis(10);
    let stall = Duration::from_millis(60);
    let start = Instant::now();
    let mut sent_at = Vec::new();
    let late = pace(start, 8, period, |i| {
        sent_at.push(start.elapsed());
        if i == 2 {
            std::thread::sleep(stall); // a send that blocks, e.g. on a full socket
        }
    });
    assert_eq!(late.len(), 8);
    // Nothing is sent before it is due.
    for (i, at) in sent_at.iter().enumerate() {
        assert!(*at >= period * i as u32, "tick {i} sent early at {at:?}");
    }
    // Ticks 3.. were due during the stall: they go out late, and their
    // lateness — which any latency timed from the due time includes —
    // shrinks by one period per tick as the schedule catches up.
    assert!(
        late[3] >= stall - period - Duration::from_millis(2),
        "tick 3 late by {:?}",
        late[3]
    );
    assert!(
        late[4] >= stall - 2 * period - Duration::from_millis(2),
        "tick 4 late by {:?}",
        late[4]
    );
    assert!(late[3] > late[5], "lateness must drain: {late:?}");
    // Lateness is reported, not hidden: the stalled tick itself was on time.
    assert!(late[2] < stall);
}

fn quick_input(seed: u64) -> Input {
    Input::build(seed, &Scale::QUICK, 10, 0, &mut Tracer::new(false))
}

#[test]
fn same_seed_same_frames_different_seed_different_frames() {
    let (a, b, c) = (quick_input(11), quick_input(11), quick_input(12));
    assert_eq!(a.saturate.0.chunks, b.saturate.0.chunks);
    assert_eq!(a.mix.0.chunks, b.mix.0.chunks);
    assert!(a.churn.is_none(), "no churn ticks, no churn stream");
    assert_eq!(a.saturate.1.cdi, b.saturate.1.cdi);
    assert_eq!(
        (a.saturate.0.spans, a.saturate.0.bytes),
        (b.saturate.0.spans, b.saturate.0.bytes)
    );
    assert_ne!(a.saturate.0.chunks, c.saturate.0.chunks);
    assert_ne!(a.mix.0.chunks, c.mix.0.chunks);
}

#[test]
fn coarsened_feed_equals_a_feed_built_at_the_coarse_tick() {
    let input = quick_input(5);
    let day = &input.day;
    let fine = LiveFeed::build(&day.pipeline, &day.world, 0, DAY, 5 * 60_000).unwrap();
    let coarse = LiveFeed::build(&day.pipeline, &day.world, 0, DAY, 30 * 60_000).unwrap();
    let merged = coarsen(&fine, 6);
    assert_eq!(merged.len(), coarse.batches.len());
    for (m, c) in merged.iter().zip(&coarse.batches) {
        assert_eq!((m.watermark, &m.spans), (c.watermark, &c.spans));
    }
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    cdipack::write_frame(&mut out, payload).unwrap();
    out
}

#[test]
fn a_corrupted_reply_is_a_failed_operation_not_a_dropped_one() {
    let good = framed(&cdipack::encode_response(&Response::Ok));
    let mut corrupted = cdipack::encode_response(&Response::Ingested {
        accepted: 3,
        shed: 0,
    });
    corrupted[0] = 0xFF; // no such response tag
    let corrupted = framed(&corrupted);
    let refused = framed(&cdipack::encode_response(&Response::Error {
        message: "no".into(),
    }));
    let truncated = good[..good.len() - 1].to_vec();

    let mut wire = Cursor::new([good.clone(), corrupted, refused, good].concat());
    let mut tally = Tally::default();
    let replies: Vec<bool> = (0..4)
        .map(|_| tally.reply(&read_reply(&mut wire)).is_some())
        .collect();
    // The stream stays in step after the bad frames: the fourth reply reads.
    assert_eq!(replies, [true, false, false, true]);
    assert_eq!(
        (tally.attempted, tally.failed, tally.error_replies),
        (4, 2, 1)
    );
    assert_eq!(tally.notes.len(), 2);

    let mut tally = Tally::default();
    assert!(tally
        .reply(&read_reply(&mut Cursor::new(truncated)))
        .is_none());
    assert!(
        tally
            .reply(&read_reply(&mut Cursor::new(&[][..])))
            .is_none(),
        "closed connection"
    );
    assert_eq!((tally.attempted, tally.failed), (2, 2));
}
