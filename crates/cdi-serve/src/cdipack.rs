//! `cdipack`, the one persisted and framed form of the serve layer.
//!
//! Every type that crosses the wire or lands in a durable image
//! implements [`Pack`]: one `put` and one `take` over the byte primitives
//! of [`minispark::pack`]. Scalars are type-directed (`u64`/`usize` →
//! varint, `i64` → zigzag varint, `f64` → raw bits, `String` → length +
//! UTF-8, `Vec<T>` → count + items, `Option<T>` → `0`/`1` tag), and the
//! protocol structs and `u8`-tagged enums are *declared once* through
//! `pack_struct!` / `pack_enum!` field lists, so an encoder and its
//! decoder cannot drift. Adding a wire verb is one variant in
//! [`crate::proto`], one line in the declaration below, and one
//! `dispatch` arm in [`crate::server`].
//!
//! Three layouts are genuinely columnar and stay hand-written:
//!
//! - **ingest batches** (`Vec<IngestItem>`): target and span-name
//!   dictionaries up front, then one compact record per item with start
//!   timestamps delta-encoded across the batch;
//! - **target snapshots** (inside [`ServiceSnapshot`] and [`ShardDelta`]):
//!   kinds, zigzag-delta ids, per-category accumulator columns, one
//!   span-name dictionary, then the open-span records;
//! - **store tables** (`minispark::store::table`, which cannot see this
//!   crate's trait and keeps its own `to_pack_bytes`/`from_pack_bytes`).
//!
//! A binary client announces itself with [`WIRE_MAGIC`], whose first byte
//! (`0xCD`) can never begin a JSON-lines request, so one listener speaks
//! both dialects (see [`crate::server`]); messages travel in
//! varint-length-prefixed frames ([`write_frame`]/[`read_frame`]).
//!
//! Every decoder is total: truncated, bit-flipped, or over-length input
//! yields a typed error, never a panic (stability-lint R1), and
//! [`decode`] rejects trailing bytes. Inside this module failures are
//! [`PackError`]s; they become [`CdiError`]s exactly once, at [`decode`]
//! and [`read_frame`]. The module is cast-free (stability-lint R4 audits
//! it with an empty allowlist).

use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;
use std::io::{ErrorKind, Read, Write};

use cdi_core::error::{CdiError, Result};
use cdi_core::event::{Category, EventSpan, Target};
use cdi_core::indicator::CdiBreakdown;
use cdi_core::streaming::AccumulatorSnapshot;
use cdi_core::time::Timestamp;
use minispark::pack::{PackError, PackReader, PackWriter};
use simfleet::Scope;

use crate::lifecycle::ResizeOutcome;
use crate::metrics::{LifecycleEvent, MetricsReport};
use crate::proto::{DrillOp, IngestItem, OutageScope, OutageSummary, Request, Response, TopEntry};
use crate::shard::{ShardMsg, TargetCdi, TargetSnapshot};
use crate::snapshot::ServiceSnapshot;

/// Connection preamble a binary client sends before its first frame.
/// The first byte (`0xCD`) is not valid UTF-8 on its own and can never
/// start a JSON-lines request, which is what makes dialect negotiation a
/// one-byte peek. The last byte is the dialect version.
pub const WIRE_MAGIC: [u8; 4] = [0xCD, b'P', b'K', 0x01];

/// Magic prefix of an encoded [`ServiceSnapshot`]. Version 2: the frozen
/// damage column is an integer varint (version 1 held `f64` bits).
pub const SNAPSHOT_MAGIC: &[u8] = b"CDSS\x02";

/// Magic prefix of an encoded [`ShardDelta`] (one durability epoch, or a
/// shard's full base image). Version 2: integer damage column, and no
/// watermark-advance chain.
pub const DELTA_MAGIC: &[u8] = b"CDSD\x02";

/// Hard cap on one frame's payload (64 MiB): a corrupt or hostile length
/// prefix is rejected before any allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

type PackResult<T> = std::result::Result<T, PackError>;

/// Map a low-level pack error into the service's typed error.
fn perr(e: PackError) -> CdiError {
    CdiError::invalid(format!("cdipack: {e}"))
}

/// Widening for encoded counts (usize always fits u64 on supported
/// targets; saturate rather than wrap if it ever would not).
fn as_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// The trait and its whole-buffer entry points
// ---------------------------------------------------------------------

/// A type with exactly one `cdipack` byte layout. `take` must accept
/// every byte string `put` can produce and must return an error — never
/// panic, never over-allocate — on anything else.
pub trait Pack: Sized {
    /// Append this value's encoding.
    fn put(&self, w: &mut PackWriter);
    /// Decode one value from the cursor, leaving it just past the value.
    fn take(r: &mut PackReader<'_>) -> PackResult<Self>;
}

/// Encode one value as a complete buffer (a frame payload, a snapshot
/// file, a durable image). Deterministic: equal values give equal bytes.
pub fn encode<T: Pack>(value: &T) -> Vec<u8> {
    let mut w = PackWriter::new();
    value.put(&mut w);
    w.into_bytes()
}

/// Decode a complete buffer produced by [`encode`]. Trailing bytes are
/// rejected; all failures are typed errors.
pub fn decode<T: Pack>(bytes: &[u8]) -> Result<T> {
    let mut r = PackReader::new(bytes);
    let value = T::take(&mut r).map_err(perr)?;
    r.finish().map_err(perr)?;
    Ok(value)
}

/// Encode one request as a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode(req)
}

/// Decode one request frame payload. Trailing bytes are rejected.
pub fn decode_request(bytes: &[u8]) -> Result<Request> {
    decode(bytes)
}

/// Encode one response as a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encode(resp)
}

/// Decode one response frame payload. Trailing bytes are rejected.
pub fn decode_response(bytes: &[u8]) -> Result<Response> {
    decode(bytes)
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Write one varint-length-prefixed frame, prefix and payload in a single
/// `write`: on a socket a prefix sent on its own leaves the payload
/// waiting (Nagle) for the peer's delayed ACK, 40 ms per frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = PackWriter::with_capacity(10 + payload.len());
    frame.put_varint(as_u64(payload.len()));
    frame.put_bytes(payload);
    w.write_all(frame.as_slice())?;
    w.flush()
}

/// Read one frame. Returns `Ok(None)` on clean EOF before the first
/// length byte; a frame that is truncated mid-way, declares more than
/// [`MAX_FRAME_LEN`] bytes, or carries a malformed varint is a typed
/// error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    // Varint length, byte by byte (no buffering assumptions on `r`).
    let mut len: u64 = 0;
    let mut shift = 0u32;
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if first && e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(CdiError::invalid(format!("cdipack frame: {e}"))),
        }
        first = false;
        let low = u64::from(byte[0] & 0x7F);
        if shift >= 63 && low > 1 {
            return Err(perr(PackError::VarintOverflow));
        }
        len |= low.wrapping_shl(shift);
        if byte[0] < 0x80 {
            break;
        }
        shift = shift.saturating_add(7);
        if shift > 63 {
            return Err(perr(PackError::VarintOverflow));
        }
    }
    let limit = as_u64(MAX_FRAME_LEN);
    let len = usize::try_from(len)
        .ok()
        .filter(|&n| n <= MAX_FRAME_LEN)
        .ok_or_else(|| perr(PackError::TooLarge { declared: len, limit }))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| CdiError::invalid(format!("cdipack frame: {e}")))?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// Type-directed primitives
// ---------------------------------------------------------------------

impl Pack for u8 {
    fn put(&self, w: &mut PackWriter) {
        w.put_u8(*self);
    }
    fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
        r.take_u8()
    }
}

impl Pack for u64 {
    fn put(&self, w: &mut PackWriter) {
        w.put_varint(*self);
    }
    fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
        r.take_varint()
    }
}

impl Pack for usize {
    fn put(&self, w: &mut PackWriter) {
        w.put_varint(as_u64(*self));
    }
    /// Checked narrowing: a count that does not fit is rejected, never
    /// wrapped.
    fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
        let declared = r.take_varint()?;
        usize::try_from(declared)
            .map_err(|_| PackError::TooLarge { declared, limit: as_u64(usize::MAX) })
    }
}

impl Pack for i64 {
    fn put(&self, w: &mut PackWriter) {
        w.put_zigzag(*self);
    }
    fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
        r.take_zigzag()
    }
}

impl Pack for f64 {
    fn put(&self, w: &mut PackWriter) {
        w.put_f64(*self);
    }
    fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
        r.take_f64()
    }
}

impl Pack for String {
    fn put(&self, w: &mut PackWriter) {
        w.put_str(self);
    }
    fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
        r.take_str()
    }
}

impl<T: Pack> Pack for Vec<T> {
    fn put(&self, w: &mut PackWriter) {
        self.len().put(w);
        for item in self {
            item.put(w);
        }
    }
    /// The count is validated against the bytes that remain (every item
    /// occupies at least one), and the vector grows only as items decode,
    /// so a hostile count cannot drive an allocation.
    fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
        let n = r.take_len()?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(T::take(r)?);
        }
        Ok(out)
    }
}

impl<T: Pack> Pack for Option<T> {
    fn put(&self, w: &mut PackWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.put(w);
            }
        }
    }
    fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::take(r)?)),
            tag => Err(PackError::BadTag { context: "option", tag }),
        }
    }
}

// ---------------------------------------------------------------------
// Field-list declarations
// ---------------------------------------------------------------------

/// `impl Pack` for a struct: the named fields, in wire order.
macro_rules! pack_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Pack for $ty {
            fn put(&self, w: &mut PackWriter) {
                $( self.$field.put(w); )+
            }
            fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
                Ok($ty { $( $field: Pack::take(r)?, )+ })
            }
        }
    };
}

/// `impl Pack` for an enum: a `u8` tag per variant, then the variant's
/// fields in wire order. Variants are unit (`Flush`), single-value tuple
/// (`Vm(id)`), or struct (`TopK { k, category }`); `$context` names the
/// tag space in [`PackError::BadTag`].
macro_rules! pack_enum {
    ($ty:ident, $context:literal {
        $( $tag:literal => $variant:ident $( ( $inner:ident ) )? $( { $($field:ident),+ } )? ),+ $(,)?
    }) => {
        impl Pack for $ty {
            fn put(&self, w: &mut PackWriter) {
                match self {
                    $( $ty::$variant $( ( $inner ) )? $( { $($field),+ } )? => {
                        w.put_u8($tag);
                        $( $inner.put(w); )?
                        $( $( $field.put(w); )+ )?
                    } )+
                }
            }
            fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
                Ok(match r.take_u8()? {
                    $( $tag => $ty::$variant
                        $( ( { let $inner = Pack::take(r)?; $inner } ) )?
                        $( { $( $field: Pack::take(r)? ),+ } )?, )+
                    tag => return Err(PackError::BadTag { context: $context, tag }),
                })
            }
        }
    };
}

pack_enum!(Category, "category" { 0 => Unavailability, 1 => Performance, 2 => ControlPlane });

/// A target is a kind byte and an id. The columnar snapshot layout
/// stores the two in separate columns, so the mapping is this pair of
/// functions rather than a `pack_enum!` line.
fn target_parts(t: Target) -> (u8, u64) {
    match t {
        Target::Vm(id) => (0, id),
        Target::Nc(id) => (1, id),
    }
}

fn target_from(kind: u8, id: u64) -> PackResult<Target> {
    match kind {
        0 => Ok(Target::Vm(id)),
        1 => Ok(Target::Nc(id)),
        _ => Err(PackError::BadTag { context: "target kind", tag: kind }),
    }
}

impl Pack for Target {
    fn put(&self, w: &mut PackWriter) {
        let (kind, id) = target_parts(*self);
        kind.put(w);
        id.put(w);
    }
    fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
        let kind = u8::take(r)?;
        let id = u64::take(r)?;
        target_from(kind, id)
    }
}

pack_enum!(Scope, "scope" {
    0 => Region(name), 1 => Az(name), 2 => Cluster(name), 3 => Nc(id), 4 => Vm(id),
});

pack_enum!(OutageScope, "outage scope" {
    0 => Vm(id), 1 => Nc(id), 2 => Cluster(name), 3 => Az(name), 4 => Region(name), 5 => Global,
});

pack_enum!(DrillOp, "drill op" { 0 => KillShard { shard }, 1 => RollingRestart, 2 => Supervise });

pack_enum!(ShardMsg, "shard msg" { 0 => Span { target, span }, 1 => Watermark(to), 2 => Crash });

pack_enum!(LifecycleEvent, "lifecycle event" {
    0 => ResizeStarted { epoch, from_shards, to_shards },
    1 => ResizeFinished { epoch, from_shards, to_shards, moved_targets, drained_msgs },
    2 => ShardRestarted { epoch, shard, drained_msgs },
    3 => ShardKilled { shard },
    4 => ShardRespawned { shard, restored_targets, replayed_msgs, replayed_bytes },
});

pack_struct!(MetricsReport {
    spans_ingested, spans_shed, late_dropped, late_clipped, rejected, queries, snapshots,
    shards, queue_depth, queue_depth_hwm, resizes, shard_restarts, shard_kills,
    shard_respawns, fence_epoch, events,
});

pack_struct!(TargetCdi { target, watermark, unavailability, performance, control_plane });

pack_struct!(TopEntry { target, score });

pack_struct!(CdiBreakdown { total_service_time, unavailability, performance, control_plane });

pack_struct!(ResizeOutcome { epoch, from_shards, to_shards, moved_targets, drained_msgs });

pack_struct!(OutageSummary {
    scope, category, start, end, ticks, spiking_vms, total_vms, spiking_ncs, concentration,
    confidence,
});

pack_enum!(Request, "request" {
    0 => Ingest { target, span },
    1 => Advance { watermark },
    2 => Flush,
    3 => Point { target },
    4 => TopK { k, category },
    5 => Rollup { scope },
    6 => Metrics,
    7 => Snapshot,
    8 => Resize { shards },
    9 => Drill { op },
    10 => Shutdown,
    11 => IngestBatch { items },
    12 => Diagnose,
});

pack_enum!(Response, "response" {
    0 => Ok,
    1 => Error { message },
    2 => Ingested { accepted, shed },
    3 => Point { found },
    4 => TopK { entries },
    5 => Rollup { vm_count, breakdown },
    6 => Metrics { report },
    7 => Snapshot { snapshot },
    8 => Resized { outcome },
    9 => Supervised { respawned },
    10 => ShuttingDown,
    11 => Diagnoses { outages },
});

// ---------------------------------------------------------------------
// Spans and dictionaries (shared by the hand-written layouts)
// ---------------------------------------------------------------------

/// Everything of a span after its name: category, start as a zigzag delta
/// against `base`, duration, weight bits.
fn put_span_body(w: &mut PackWriter, base: Timestamp, s: &EventSpan) {
    s.category.put(w);
    s.start.wrapping_sub(base).put(w);
    s.end.wrapping_sub(s.start).put(w);
    s.weight.put(w);
}

fn take_span_body(r: &mut PackReader<'_>, base: Timestamp, name: String) -> PackResult<EventSpan> {
    let category = Category::take(r)?;
    let start = base.wrapping_add(i64::take(r)?);
    let end = start.wrapping_add(i64::take(r)?);
    let weight = f64::take(r)?;
    Ok(EventSpan { name, category, start, end, weight })
}

/// A span as a standalone record (wire `Ingest`, journal entries): name
/// inline, start absolute.
impl Pack for EventSpan {
    fn put(&self, w: &mut PackWriter) {
        self.name.put(w);
        put_span_body(w, 0, self);
    }
    fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
        let name = String::take(r)?;
        take_span_body(r, 0, name)
    }
}

/// First-seen-order dictionary: deterministic, so equal inputs encode to
/// equal bytes.
struct Dict<K> {
    keys: Vec<K>,
    index: HashMap<K, u64>,
}

impl<K: Copy + Eq + Hash> Dict<K> {
    fn new() -> Self {
        Dict { keys: Vec::new(), index: HashMap::new() }
    }

    fn intern(&mut self, key: K) {
        let next = as_u64(self.keys.len());
        // bound: one entry per distinct key in the value being encoded
        if let Entry::Vacant(slot) = self.index.entry(key) {
            slot.insert(next);
            // bound: same — the dictionary is dropped with the encoder call
            self.keys.push(key);
        }
    }

    fn index_of(&self, key: K) -> u64 {
        self.index.get(&key).copied().unwrap_or(0)
    }
}

/// Read a dictionary index and resolve it.
fn take_indexed<T: Clone>(r: &mut PackReader<'_>, dict: &[T], what: &str) -> PackResult<T> {
    let idx = usize::take(r)?;
    dict.get(idx)
        .cloned()
        .ok_or_else(|| PackError::Malformed(format!("{what} index {idx} out of range")))
}

fn put_names(w: &mut PackWriter, names: &[&str]) {
    names.len().put(w);
    for name in names {
        w.put_str(name);
    }
}

// ---------------------------------------------------------------------
// Ingest batches
// ---------------------------------------------------------------------

/// Batch layout: item count, target dictionary, span-name dictionary,
/// then one compact record per item (dictionary indices, start delta
/// against the previous item, duration, weight).
///
/// This is *the* encoding of `Vec<IngestItem>`; `IngestItem` deliberately
/// has no `Pack` impl of its own, so the generic count + items layout
/// does not apply to it.
impl Pack for Vec<IngestItem> {
    fn put(&self, w: &mut PackWriter) {
        let mut targets: Dict<Target> = Dict::new();
        let mut names: Dict<&str> = Dict::new();
        for item in self {
            targets.intern(item.target);
            names.intern(item.span.name.as_str());
        }
        self.len().put(w);
        targets.keys.put(w);
        put_names(w, &names.keys);
        let mut prev_start: Timestamp = 0;
        for item in self {
            targets.index_of(item.target).put(w);
            names.index_of(item.span.name.as_str()).put(w);
            put_span_body(w, prev_start, &item.span);
            prev_start = item.span.start;
        }
    }

    fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
        let n_items = r.take_len()?;
        let targets = Vec::<Target>::take(r)?;
        let names = Vec::<String>::take(r)?;
        let mut items = Vec::new();
        let mut prev_start: Timestamp = 0;
        for _ in 0..n_items {
            let target = take_indexed(r, &targets, "target")?;
            let name = take_indexed(r, &names, "name")?;
            let span = take_span_body(r, prev_start, name)?;
            prev_start = span.start;
            items.push(IngestItem { target, span });
        }
        Ok(items)
    }
}

// ---------------------------------------------------------------------
// Columnar target snapshots (shared by snapshot and delta)
// ---------------------------------------------------------------------

fn acc_of(t: &TargetSnapshot, cat: usize) -> &AccumulatorSnapshot {
    match cat {
        0 => &t.unavailability,
        1 => &t.performance,
        _ => &t.control_plane,
    }
}

fn acc_mut(t: &mut TargetSnapshot, cat: usize) -> &mut AccumulatorSnapshot {
    match cat {
        0 => &mut t.unavailability,
        1 => &mut t.performance,
        _ => &mut t.control_plane,
    }
}

/// Reinterpret a wrapping u64 difference as a signed delta (cast-free).
fn id_delta(curr: u64, prev: u64) -> i64 {
    i64::from_le_bytes(curr.wrapping_sub(prev).to_le_bytes())
}

/// Apply a signed delta to the previous id (cast-free).
fn id_apply(prev: u64, delta: i64) -> u64 {
    prev.wrapping_add(u64::from_le_bytes(delta.to_le_bytes()))
}

/// Columnar layout for a run of [`TargetSnapshot`]s:
///
/// ```text
/// varint n
/// kinds     n × u8                       (0 = Vm, 1 = Nc)
/// ids       n × zigzag delta vs previous (small for sorted runs)
/// per category (unavailability, performance, control-plane):
///   period_start  n × zigzag delta vs base_ps
///   watermark     n × zigzag delta vs base_wm
///   frozen        n × varint             (damage, µ-weight·ms)
///   late_dropped  n × varint
///   late_clipped  n × varint
///   open count    n × varint
/// name dictionary: varint count, strings (first-seen order)
/// span records (category-major, then target, then span order):
///   varint name index, u8 category,
///   zigzag start vs owning accumulator watermark,
///   zigzag duration, f64 weight bits
/// ```
fn put_target_snapshots(
    w: &mut PackWriter,
    base_ps: Timestamp,
    base_wm: Timestamp,
    targets: &[TargetSnapshot],
) {
    targets.len().put(w);
    for t in targets {
        target_parts(t.target).0.put(w);
    }
    let mut prev_id = 0u64;
    for t in targets {
        let id = target_parts(t.target).1;
        id_delta(id, prev_id).put(w);
        prev_id = id;
    }
    for cat in 0..3 {
        let accs = || targets.iter().map(move |t| acc_of(t, cat));
        accs().for_each(|a| a.period_start.wrapping_sub(base_ps).put(w));
        accs().for_each(|a| a.watermark.wrapping_sub(base_wm).put(w));
        accs().for_each(|a| a.frozen.put(w));
        accs().for_each(|a| a.late_dropped.put(w));
        accs().for_each(|a| a.late_clipped.put(w));
        accs().for_each(|a| a.open.len().put(w));
    }
    let by_category = || (0..3).flat_map(|cat| targets.iter().map(move |t| acc_of(t, cat)));
    let mut names: Dict<&str> = Dict::new();
    for s in by_category().flat_map(|acc| &acc.open) {
        names.intern(s.name.as_str());
    }
    put_names(w, &names.keys);
    for acc in by_category() {
        for s in &acc.open {
            names.index_of(s.name.as_str()).put(w);
            put_span_body(w, acc.watermark, s);
        }
    }
}

fn take_target_snapshots(
    r: &mut PackReader<'_>,
    base_ps: Timestamp,
    base_wm: Timestamp,
) -> PackResult<Vec<TargetSnapshot>> {
    let n = r.take_len()?;
    let kinds = r.take_bytes(n)?;
    let blank = AccumulatorSnapshot {
        period_start: base_ps,
        watermark: base_wm,
        frozen: 0,
        open: Vec::new(),
        late_dropped: 0,
        late_clipped: 0,
    };
    let mut targets = Vec::new();
    let mut prev_id = 0u64;
    for &kind in kinds {
        let id = id_apply(prev_id, i64::take(r)?);
        prev_id = id;
        targets.push(TargetSnapshot {
            target: target_from(kind, id)?,
            unavailability: blank.clone(),
            performance: blank.clone(),
            control_plane: blank.clone(),
        });
    }
    let mut open_counts = vec![[0u64; 3]; targets.len()];
    for cat in 0..3 {
        for t in &mut targets {
            acc_mut(t, cat).period_start = base_ps.wrapping_add(i64::take(r)?);
        }
        for t in &mut targets {
            acc_mut(t, cat).watermark = base_wm.wrapping_add(i64::take(r)?);
        }
        for t in &mut targets {
            acc_mut(t, cat).frozen = u64::take(r)?;
        }
        for t in &mut targets {
            acc_mut(t, cat).late_dropped = usize::take(r)?;
        }
        for t in &mut targets {
            acc_mut(t, cat).late_clipped = usize::take(r)?;
        }
        for counts in &mut open_counts {
            counts[cat] = u64::take(r)?;
        }
    }
    let names = Vec::<String>::take(r)?;
    for cat in 0..3 {
        for (t, counts) in targets.iter_mut().zip(&open_counts) {
            let acc = acc_mut(t, cat);
            for _ in 0..counts[cat] {
                let name = take_indexed(r, &names, "span name")?;
                acc.open.push(take_span_body(r, acc.watermark, name)?);
            }
        }
    }
    Ok(targets)
}

/// Header timestamps, the columnar targets against them, then the
/// metrics report. The target list is sorted by the service, so equal
/// snapshots produce identical bytes.
impl Pack for ServiceSnapshot {
    fn put(&self, w: &mut PackWriter) {
        w.put_bytes(SNAPSHOT_MAGIC);
        self.period_start.put(w);
        self.watermark.put(w);
        put_target_snapshots(w, self.period_start, self.watermark, &self.targets);
        self.metrics.put(w);
    }
    fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
        r.expect_magic(SNAPSHOT_MAGIC)?;
        let period_start = i64::take(r)?;
        let watermark = i64::take(r)?;
        let targets = take_target_snapshots(r, period_start, watermark)?;
        let metrics = MetricsReport::take(r)?;
        Ok(ServiceSnapshot { period_start, watermark, targets, metrics })
    }
}

// ---------------------------------------------------------------------
// ShardDelta (the shard's durable image)
// ---------------------------------------------------------------------

/// One durability epoch of a shard: the watermark interval it covers and
/// the full snapshots of only the targets dirtied inside it. Applying a
/// chain of deltas to an empty state reproduces the live state exactly:
/// untouched targets advance once to `to_watermark` (damage is an integer
/// sum, so one jump freezes what the live shard's many advances did), and
/// touched targets are replaced outright by their `to_watermark`
/// snapshots.
///
/// A shard's full base image is the same shape cut from an empty state:
/// `from_watermark` = the period start, `changed` = every target (see
/// [`crate::shard::ShardState`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDelta {
    /// Shard watermark when the previous epoch closed.
    pub from_watermark: Timestamp,
    /// Shard watermark when this epoch closed.
    pub to_watermark: Timestamp,
    /// Authoritative accumulator-rejection counter at epoch close.
    pub rejected: u64,
    /// Targets dirtied during the epoch, sorted by target, snapshotted at
    /// `to_watermark`.
    pub changed: Vec<TargetSnapshot>,
}

/// Header, then the columnar targets against the epoch's two watermarks.
impl Pack for ShardDelta {
    fn put(&self, w: &mut PackWriter) {
        w.put_bytes(DELTA_MAGIC);
        self.from_watermark.put(w);
        self.to_watermark.put(w);
        self.rejected.put(w);
        put_target_snapshots(w, self.from_watermark, self.to_watermark, &self.changed);
    }
    fn take(r: &mut PackReader<'_>) -> PackResult<Self> {
        r.expect_magic(DELTA_MAGIC)?;
        let from_watermark = i64::take(r)?;
        let to_watermark = i64::take(r)?;
        let rejected = u64::take(r)?;
        let changed = take_target_snapshots(r, from_watermark, to_watermark)?;
        Ok(ShardDelta { from_watermark, to_watermark, rejected, changed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts the `write` calls that reach it.
    struct Counting {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_whatever_its_size() {
        for payload in [vec![], b"hello".to_vec(), vec![0xAB; (64 << 10) + 1]] {
            let mut w = Counting { writes: 0, bytes: Vec::new() };
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "{} payload bytes", payload.len());
            assert_eq!(read_frame(&mut &w.bytes[..]).unwrap().unwrap(), payload);
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        // A frame declaring more than the cap is rejected without allocation.
        let mut w = PackWriter::new();
        w.put_varint(as_u64(MAX_FRAME_LEN) + 1);
        let huge = w.into_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());

        // A truncated payload is a typed error, not a hang or panic.
        let mut partial = Vec::new();
        write_frame(&mut partial, b"abcdef").unwrap();
        partial.truncate(partial.len() - 2);
        let mut r = &partial[..];
        assert!(read_frame(&mut r).is_err());
    }
}
