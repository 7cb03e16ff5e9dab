//! `cdipack` table persistence: round-trip fidelity, zero-copy decode
//! accounting, and corruption robustness at the store layer.

use minispark::exec::ExecMetrics;
use minispark::store::{Catalog, ColumnType, Schema, Table, Value};
use minispark::{Dataset, ExecContext};

fn wide_table(rows: i64) -> Table {
    let schema = Schema::new(vec![
        ("vm", ColumnType::Int),
        ("cdi", ColumnType::Float),
        ("region", ColumnType::Str),
        ("note", ColumnType::Str),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    for i in 0..rows {
        t.push_row(vec![
            Value::Int(i),
            Value::Float(f64::from(u32::try_from(i % 997).unwrap()) * 1e-4),
            Value::Str(format!("region-{}", i % 3)),
            Value::Str(if i % 7 == 0 { "degraded".into() } else { "ok".into() }),
        ])
        .unwrap();
    }
    t
}

#[test]
fn pack_bytes_round_trip_exactly() {
    let t = wide_table(257);
    let bytes = t.to_pack_bytes();
    let metrics = ExecMetrics::default();
    let back = Table::from_pack_bytes(&bytes).unwrap().into_table(&metrics);
    assert_eq!(back, t);
    // Unique decode ownership: materializing costs zero accounted clones.
    assert_eq!(metrics.snapshot().rows_cloned, 0);
    // Deterministic encoder: equal tables produce equal bytes.
    assert_eq!(back.to_pack_bytes(), bytes);
}

#[test]
fn pack_preserves_float_bits() {
    let schema = Schema::new(vec![("x", ColumnType::Float)]).unwrap();
    let mut t = Table::new(schema);
    for v in [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.1 + 0.2, 1e-308] {
        t.push_row(vec![Value::Float(v)]).unwrap();
    }
    let metrics = ExecMetrics::default();
    let back =
        Table::from_pack_bytes(&t.to_pack_bytes()).unwrap().into_table(&metrics);
    let orig = match t.column("x").unwrap() {
        minispark::store::Column::Float(c) => c.clone(),
        _ => unreachable!(),
    };
    let got = match back.column("x").unwrap() {
        minispark::store::Column::Float(c) => c.clone(),
        _ => unreachable!(),
    };
    for (a, b) in orig.iter().zip(got.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn packed_columns_are_shared_not_copied() {
    let t = wide_table(100);
    let packed = Table::from_pack_bytes(&t.to_pack_bytes()).unwrap();

    // Two float handles alias the same rows — refcount bumps, not copies.
    let a = packed.floats("cdi").unwrap();
    let b = packed.floats("cdi").unwrap();
    assert!(std::ptr::eq(&a[0], &b[0]), "column handles alias one materialization");

    // A Dataset over the shared partition counts without cloning rows.
    let ctx = ExecContext::new();
    let ds = Dataset::from_partitions(vec![packed.floats("cdi").unwrap()]).unwrap();
    assert_eq!(ds.count(&ctx), 100);
    assert_eq!(ctx.metrics.snapshot().rows_cloned, 0, "plan reads are refcount bumps");

    // Materializing to an owned Table while the packed view is alive is a
    // real copy — and the accounting says so.
    let metrics = ExecMetrics::default();
    let owned = packed.to_table(&metrics);
    assert_eq!(owned, t);
    assert_eq!(metrics.snapshot().rows_cloned, 4 * 100, "4 shared columns × 100 rows");
}

#[test]
fn corrupt_pack_bytes_are_typed_errors_never_panics() {
    let t = wide_table(64);
    let bytes = t.to_pack_bytes();

    // Truncation at every prefix length must fail cleanly (or, for the
    // full length, succeed) — never panic.
    for cut in 0..bytes.len() {
        let _ = Table::from_pack_bytes(&bytes[..cut]).map(|_| ());
    }
    assert!(Table::from_pack_bytes(&bytes[..bytes.len() / 2]).is_err());

    // Single-byte flips decode to an error or to *some* table — but the
    // decoder itself must stay total.
    for i in 0..bytes.len().min(512) {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0x41;
        let _ = Table::from_pack_bytes(&mutated).map(|_| ());
    }

    // Over-length declaration: claim a giant row count.
    let mut over = bytes.clone();
    let keep = over.len() / 4;
    over.truncate(keep);
    assert!(Table::from_pack_bytes(&over).is_err());

    // Trailing garbage is rejected.
    let mut extra = bytes.clone();
    extra.push(0x00);
    assert!(Table::from_pack_bytes(&extra).is_err());
}

#[test]
fn catalog_round_trips_cdp_files() {
    let dir = std::env::temp_dir().join(format!("minispark-cdp-{}", std::process::id()));
    let cat = Catalog::open(&dir).unwrap();
    let t = wide_table(16);
    cat.save_packed("as_pack", &t).unwrap();
    assert_eq!(cat.list().unwrap(), vec!["as_pack"]);
    assert_eq!(cat.load("as_pack").unwrap(), t);
    let packed = cat.load_packed("as_pack").unwrap();
    assert_eq!(packed.len(), 16);
    assert!(cat.load("missing").is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `.cdp` byte layout is a persisted format: a fixed table must keep
/// encoding to exactly the committed fixture (and the fixture must keep
/// decoding to that table).
#[test]
fn cdp_fixture_is_reproduced() {
    let golden: &[u8] = include_bytes!("fixtures/wide_table.cdp");
    let t = wide_table(16);
    assert_eq!(t.to_pack_bytes(), golden, "MSPK layout drifted from the committed fixture");
    let metrics = ExecMetrics::default();
    assert_eq!(Table::from_pack_bytes(golden).unwrap().into_table(&metrics), t);
}
