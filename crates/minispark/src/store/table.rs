//! Columnar tables persisted as `cdipack` files — the MaxCompute stand-in.
//!
//! The CDI job writes two output tables (Section V): per-VM daily indicators
//! and per-(event, VM) drill-down rows. [`Table`] stores such data in typed
//! columns; [`Catalog`] is a directory of named tables, one `{name}.cdp`
//! file each. `experiments dump <file.cdp>` prints one as JSON.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::error::{Result, SparkError};
use crate::exec::ExecMetrics;
use crate::pack::{PackError, PackReader, PackWriter};
use crate::partition::Partition;

/// Magic + version preamble of a `cdipack` table file.
pub const TABLE_PACK_MAGIC: &[u8] = b"MSPK\x01";

/// Type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Integer cell.
    Int(i64),
    /// Float cell.
    Float(f64),
    /// String cell.
    Str(String),
}

impl Value {
    /// Integer view (errors on other types).
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(SparkError::schema(format!("expected int, got {other:?}"))),
        }
    }

    /// Float view (integers coerce losslessly).
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            other => Err(SparkError::schema(format!("expected float, got {other:?}"))),
        }
    }

    /// String view (errors on other types).
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(v) => Ok(v),
            other => Err(SparkError::schema(format!("expected string, got {other:?}"))),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            // `{:?}`-style float printing keeps full precision round-trips.
            Value::Float(v) => write!(f, "{v:?}"),
            Value::Str(v) => f.write_str(v),
        }
    }
}

/// A row is one value per schema field.
pub type Row = Vec<Value>;

/// Ordered, named, typed fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs; names must be unique.
    pub fn new(fields: Vec<(&str, ColumnType)>) -> Result<Self> {
        let mut seen = HashMap::new();
        for (i, (name, _)) in fields.iter().enumerate() {
            if seen.insert(name.to_string(), i).is_some() {
                return Err(SparkError::schema(format!("duplicate column name '{name}'")));
            }
        }
        Ok(Schema {
            fields: fields.into_iter().map(|(n, t)| (n.to_string(), t)).collect(),
        })
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| SparkError::schema(format!("unknown column '{name}'")))
    }

    /// Field name and type at an index.
    pub fn field(&self, i: usize) -> (&str, ColumnType) {
        let (n, t) = &self.fields[i];
        (n.as_str(), *t)
    }

    /// Iterate `(name, type)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ColumnType)> {
        self.fields.iter().map(|(n, t)| (n.as_str(), *t))
    }
}

/// A typed column of cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
    /// String column.
    Str(Vec<String>),
}

impl Column {
    fn empty(t: ColumnType) -> Self {
        match t {
            ColumnType::Int => Column::Int(Vec::new()),
            ColumnType::Float => Column::Float(Vec::new()),
            ColumnType::Str => Column::Str(Vec::new()),
        }
    }

    fn push(&mut self, v: Value) -> Result<()> {
        match (self, v) {
            (Column::Int(c), Value::Int(v)) => c.push(v),
            (Column::Float(c), Value::Float(v)) => c.push(v),
            (Column::Float(c), Value::Int(v)) => c.push(v as f64),
            (Column::Str(c), Value::Str(v)) => c.push(v),
            (col, v) => {
                return Err(SparkError::schema(format!(
                    "value {v:?} does not fit column of type {:?}",
                    match col {
                        Column::Int(_) => ColumnType::Int,
                        Column::Float(_) => ColumnType::Float,
                        Column::Str(_) => ColumnType::Str,
                    }
                )))
            }
        }
        Ok(())
    }

    /// Materialize cell `i` as a [`Value`] (clones string cells).
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int(c) => Value::Int(c[i]),
            Column::Float(c) => Value::Float(c[i]),
            Column::Str(c) => Value::Str(c[i].clone()),
        }
    }

    /// Float view of cell `i` without materializing a [`Value`] (integers
    /// coerce losslessly) — the allocation-free accessor columnar scans
    /// aggregate through.
    pub fn float_at(&self, i: usize) -> Result<f64> {
        match self {
            Column::Float(c) => Ok(c[i]),
            Column::Int(c) => Ok(c[i] as f64),
            Column::Str(_) => Err(SparkError::schema("string column has no float view")),
        }
    }

    /// Float view of the whole column (integers coerce).
    pub fn as_floats(&self) -> Result<Vec<f64>> {
        match self {
            Column::Float(c) => Ok(c.clone()),
            Column::Int(c) => Ok(c.iter().map(|&v| v as f64).collect()),
            Column::Str(_) => Err(SparkError::schema("string column has no float view")),
        }
    }
}

/// A columnar table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema.iter().map(|(_, t)| Column::empty(t)).collect();
        Table { schema, columns, rows: 0 }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append a row (must match the schema arity and types; ints coerce
    /// into float columns).
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(SparkError::schema(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.schema.len()
            )));
        }
        // Validate the full row before mutating any column so a failed push
        // cannot leave ragged columns behind.
        for (i, v) in row.iter().enumerate() {
            let (_, t) = self.schema.field(i);
            let ok = matches!(
                (t, v),
                (ColumnType::Int, Value::Int(_))
                    | (ColumnType::Float, Value::Float(_))
                    | (ColumnType::Float, Value::Int(_))
                    | (ColumnType::Str, Value::Str(_))
            );
            if !ok {
                return Err(SparkError::schema(format!(
                    "value {v:?} does not fit column '{}' of type {t:?}",
                    self.schema.field(i).0
                )));
            }
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Iterate all rows.
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// New table with only the rows satisfying the predicate.
    pub fn filter(&self, pred: impl Fn(&Row) -> bool) -> Table {
        let mut out = Table::new(self.schema.clone());
        for r in self.rows() {
            if pred(&r) {
                // `r` was read out of `self`, so it always matches the
                // schema `out` was built from; a failed push is a bug, but
                // dropping the row degrades better than panicking.
                if out.push_row(r).is_err() {
                    debug_assert!(false, "row from the same schema failed to push");
                }
            }
        }
        out
    }

    /// New table with only the named columns, in the given order. Copies
    /// whole columns, never materializing intermediate rows.
    pub fn select(&self, columns: &[&str]) -> Result<Table> {
        let indices: Vec<usize> = columns
            .iter()
            .map(|c| self.schema.index_of(c))
            .collect::<Result<_>>()?;
        let fields: Vec<(&str, ColumnType)> =
            indices.iter().map(|&i| self.schema.field(i)).collect();
        Ok(Table {
            schema: Schema::new(fields)?,
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            rows: self.rows,
        })
    }

    // --- persistence -------------------------------------------------------

    /// Encode as `cdipack` bytes: a columnar binary layout with
    /// zigzag-delta integer columns, bit-exact float columns, and
    /// dictionary-encoded string columns. See `DESIGN.md` §11.
    pub fn to_pack_bytes(&self) -> Vec<u8> {
        let mut w = PackWriter::with_capacity(64 + self.rows * self.schema.len());
        w.put_bytes(TABLE_PACK_MAGIC);
        w.put_varint(u64::try_from(self.schema.len()).unwrap_or(u64::MAX));
        for (name, t) in self.schema.iter() {
            w.put_str(name);
            w.put_u8(type_tag(t));
        }
        w.put_varint(u64::try_from(self.rows).unwrap_or(u64::MAX));
        for col in &self.columns {
            match col {
                Column::Int(c) => {
                    // Delta chain: sorted id-like columns collapse to ~1
                    // byte per row; zigzag keeps descending runs short too.
                    let mut prev = 0i64;
                    for &v in c {
                        w.put_zigzag(v.wrapping_sub(prev));
                        prev = v;
                    }
                }
                Column::Float(c) => {
                    for &v in c {
                        w.put_f64(v);
                    }
                }
                Column::Str(c) => {
                    // First-seen-order dictionary, then one varint index per
                    // row — deterministic, so equal tables encode to equal
                    // bytes.
                    let mut dict: Vec<&str> = Vec::new();
                    let mut index_of: HashMap<&str, u64> = HashMap::new();
                    let mut indices: Vec<u64> = Vec::with_capacity(c.len());
                    for v in c {
                        let next = u64::try_from(dict.len()).unwrap_or(u64::MAX);
                        let idx = *index_of.entry(v.as_str()).or_insert_with(|| {
                            dict.push(v.as_str());
                            next
                        });
                        indices.push(idx);
                    }
                    w.put_varint(u64::try_from(dict.len()).unwrap_or(u64::MAX));
                    for s in dict {
                        w.put_str(s);
                    }
                    for idx in indices {
                        w.put_varint(idx);
                    }
                }
            }
        }
        w.into_bytes()
    }

    /// Write as a `cdipack` file.
    pub fn to_pack(&self, path: &Path) -> Result<()> {
        let mut w = BufWriter::new(fs::File::create(path)?);
        w.write_all(&self.to_pack_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Decode `cdipack` bytes into a [`PackedTable`] — each column is
    /// materialized exactly once into a [`Partition`] arc; downstream
    /// consumers read by refcount bump.
    pub fn from_pack_bytes(bytes: &[u8]) -> Result<PackedTable> {
        decode_pack(bytes).map_err(SparkError::from)
    }

    /// Read a `cdipack` file written by [`Table::to_pack`].
    pub fn from_pack(path: &Path) -> Result<PackedTable> {
        let bytes = fs::read(path)?;
        Table::from_pack_bytes(&bytes)
    }
}

fn type_tag(t: ColumnType) -> u8 {
    match t {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Str => 2,
    }
}

fn type_from_tag(tag: u8) -> std::result::Result<ColumnType, PackError> {
    match tag {
        0 => Ok(ColumnType::Int),
        1 => Ok(ColumnType::Float),
        2 => Ok(ColumnType::Str),
        tag => Err(PackError::BadTag { context: "column type", tag }),
    }
}

fn decode_pack(bytes: &[u8]) -> std::result::Result<PackedTable, PackError> {
    let mut r = PackReader::new(bytes);
    r.expect_magic(TABLE_PACK_MAGIC)?;
    let ncols = r.take_len()?;
    let mut fields: Vec<(String, ColumnType)> = Vec::with_capacity(ncols.min(r.remaining()));
    for _ in 0..ncols {
        let name = r.take_str()?;
        let t = type_from_tag(r.take_u8()?)?;
        fields.push((name, t));
    }
    let rows = usize::try_from(r.take_varint()?)
        .map_err(|_| PackError::Malformed("row count exceeds usize".into()))?;
    let mut columns: Vec<ColumnArc> = Vec::with_capacity(fields.len());
    for (_, t) in &fields {
        // Pre-size against the bytes actually present so a corrupt row
        // count cannot drive a huge allocation before the reads fail.
        let cap = rows.min(r.remaining().max(1));
        match t {
            ColumnType::Int => {
                let mut c: Vec<i64> = Vec::with_capacity(cap);
                let mut prev = 0i64;
                for _ in 0..rows {
                    prev = prev.wrapping_add(r.take_zigzag()?);
                    c.push(prev);
                }
                columns.push(ColumnArc::Int(Partition::new(c)));
            }
            ColumnType::Float => {
                let mut c: Vec<f64> = Vec::with_capacity(cap);
                for _ in 0..rows {
                    c.push(r.take_f64()?);
                }
                columns.push(ColumnArc::Float(Partition::new(c)));
            }
            ColumnType::Str => {
                let dict_len = r.take_len()?;
                let mut dict: Vec<String> = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(r.take_str()?);
                }
                let mut c: Vec<String> = Vec::with_capacity(cap);
                for _ in 0..rows {
                    let idx = usize::try_from(r.take_varint()?)
                        .map_err(|_| PackError::Malformed("dict index exceeds usize".into()))?;
                    let s = dict.get(idx).ok_or_else(|| {
                        PackError::Malformed(format!(
                            "dict index {idx} out of range (dict has {dict_len})"
                        ))
                    })?;
                    c.push(s.clone());
                }
                columns.push(ColumnArc::Str(Partition::new(c)));
            }
        }
    }
    r.finish()?;
    let schema = Schema::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect())
        .map_err(|e| PackError::Malformed(e.to_string()))?;
    Ok(PackedTable { schema, columns, rows })
}

/// One decoded `cdipack` column, pinned in a [`Partition`] arc.
#[derive(Debug, Clone)]
pub enum ColumnArc {
    /// Integer column.
    Int(Partition<i64>),
    /// Float column.
    Float(Partition<f64>),
    /// String column.
    Str(Partition<String>),
}

impl ColumnArc {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            ColumnArc::Int(p) => p.len(),
            ColumnArc::Float(p) => p.len(),
            ColumnArc::Str(p) => p.len(),
        }
    }

    /// Whether the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A `cdipack`-decoded table whose columns live in shared [`Partition`]
/// arcs: the decode materializes each column exactly once, and every
/// consumer after that — [`PackedTable::floats`] handed to a
/// [`crate::Dataset`], or a full [`PackedTable::to_table`] — either bumps a
/// refcount or pays a clone that is accounted in
/// [`ExecMetrics::rows_cloned`]/`bytes_cloned`.
#[derive(Debug, Clone)]
pub struct PackedTable {
    schema: Schema,
    columns: Vec<ColumnArc>,
    rows: usize,
}

impl PackedTable {
    /// The decoded schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column arc by name (refcount view, no copy).
    pub fn column(&self, name: &str) -> Result<&ColumnArc> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Float column by name as a shared partition — an `Arc` bump, never a
    /// row copy. Feed it to [`crate::Dataset::from_partitions`] to run
    /// plans over the decoded bytes with zero additional materialization.
    pub fn floats(&self, name: &str) -> Result<Partition<f64>> {
        match self.column(name)? {
            ColumnArc::Float(p) => Ok(p.clone()),
            _ => Err(SparkError::schema(format!("column '{name}' is not a float column"))),
        }
    }

    /// Materialize an owned [`Table`], keeping this packed view alive: the
    /// copies are real and show up in `metrics.rows_cloned`/`bytes_cloned`.
    pub fn to_table(&self, metrics: &ExecMetrics) -> Table {
        self.clone().into_table(metrics)
    }

    /// Convert into an owned [`Table`]. Columns nobody else holds are moved
    /// out for free; shared columns are cloned with metric accounting —
    /// the same ownership-transfer contract as [`Partition::into_vec`].
    pub fn into_table(self, metrics: &ExecMetrics) -> Table {
        let columns = self
            .columns
            .into_iter()
            .map(|c| match c {
                ColumnArc::Int(p) => Column::Int(p.into_vec(metrics)),
                ColumnArc::Float(p) => Column::Float(p.into_vec(metrics)),
                ColumnArc::Str(p) => Column::Str(p.into_vec(metrics)),
            })
            .collect();
        Table { schema: self.schema, columns, rows: self.rows }
    }
}

/// A directory of named tables, each stored as `{name}.cdp` (`cdipack`,
/// the compact binary columnar format).
#[derive(Debug)]
pub struct Catalog {
    dir: PathBuf,
}

impl Catalog {
    /// Open (creating if needed) a catalog at a directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Catalog { dir })
    }

    /// Persist a table under a name (overwrites).
    pub fn save_packed(&self, name: &str, table: &Table) -> Result<()> {
        table.to_pack(&self.pack_path_of(name))
    }

    /// Load a table by name, materialized (free moves — the decode's
    /// partitions have no other owner yet).
    pub fn load(&self, name: &str) -> Result<Table> {
        Ok(self.load_packed(name)?.into_table(&ExecMetrics::default()))
    }

    /// Load a table by name as a zero-copy [`PackedTable`].
    pub fn load_packed(&self, name: &str) -> Result<PackedTable> {
        Table::from_pack(&self.pack_path_of(name))
    }

    /// Names of the stored tables, sorted.
    pub fn list(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let p = entry?.path();
            if p.extension().is_some_and(|e| e == "cdp") {
                if let Some(stem) = p.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn pack_path_of(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.cdp"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        Schema::new(vec![
            ("vm", ColumnType::Int),
            ("cdi", ColumnType::Float),
            ("region", ColumnType::Str),
        ])
        .unwrap()
    }

    fn sample_table() -> Table {
        let mut t = Table::new(sample_schema());
        t.push_row(vec![Value::Int(1), Value::Float(0.02), Value::Str("hz".into())]).unwrap();
        t.push_row(vec![Value::Int(2), Value::Float(0.002), Value::Str("sh".into())]).unwrap();
        t.push_row(vec![Value::Int(3), Value::Float(0.004), Value::Str("hz".into())]).unwrap();
        t
    }

    #[test]
    fn schema_validation() {
        assert!(Schema::new(vec![("a", ColumnType::Int), ("a", ColumnType::Str)]).is_err());
        let s = sample_schema();
        assert_eq!(s.index_of("cdi").unwrap(), 1);
        assert!(s.index_of("nope").is_err());
        assert_eq!(s.field(2), ("region", ColumnType::Str));
    }

    #[test]
    fn push_and_read_rows() {
        let t = sample_table();
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.row(0),
            vec![Value::Int(1), Value::Float(0.02), Value::Str("hz".into())]
        );
        let floats = t.column("cdi").unwrap().as_floats().unwrap();
        assert_eq!(floats, vec![0.02, 0.002, 0.004]);
    }

    #[test]
    fn type_mismatches_rejected_without_corruption() {
        let mut t = sample_table();
        // Wrong arity.
        assert!(t.push_row(vec![Value::Int(9)]).is_err());
        // Wrong type in the *last* column: earlier columns must not grow.
        assert!(t
            .push_row(vec![Value::Int(9), Value::Float(0.1), Value::Int(7)])
            .is_err());
        assert_eq!(t.len(), 3);
        assert_eq!(t.column("vm").unwrap().as_floats().unwrap().len(), 3);
    }

    #[test]
    fn int_coerces_into_float_column() {
        let mut t = sample_table();
        t.push_row(vec![Value::Int(4), Value::Int(1), Value::Str("sg".into())]).unwrap();
        assert_eq!(t.column("cdi").unwrap().as_floats().unwrap()[3], 1.0);
    }

    #[test]
    fn filter_by_predicate() {
        let t = sample_table();
        let hz = t.filter(|r| r[2] == Value::Str("hz".into()));
        assert_eq!(hz.len(), 2);
        assert_eq!(hz.row(1)[0], Value::Int(3));
    }

    #[test]
    fn select_projects_and_reorders() {
        let t = sample_table();
        let p = t.select(&["region", "vm"]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.schema().len(), 2);
        assert_eq!(p.row(0), vec![Value::Str("hz".into()), Value::Int(1)]);
        // Unknown column errors; duplicate selection is rejected by the
        // schema's name-uniqueness rule.
        assert!(t.select(&["nope"]).is_err());
        assert!(t.select(&["vm", "vm"]).is_err());
    }

    #[test]
    fn catalog_save_load_list() {
        let dir = std::env::temp_dir().join(format!("minispark-cat-{}", std::process::id()));
        let cat = Catalog::open(&dir).unwrap();
        let t = sample_table();
        cat.save_packed("vm_cdi", &t).unwrap();
        cat.save_packed("event_cdi", &t).unwrap();
        assert_eq!(cat.list().unwrap(), vec!["event_cdi", "vm_cdi"]);
        assert_eq!(cat.load("vm_cdi").unwrap(), t);
        assert!(cat.load("missing").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_int().unwrap(), 3);
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
        assert_eq!(Value::Float(0.5).as_float().unwrap(), 0.5);
        assert_eq!(Value::Str("x".into()).as_str().unwrap(), "x");
        assert!(Value::Str("x".into()).as_int().is_err());
        assert!(Value::Float(1.0).as_str().is_err());
        assert!(Value::Str("x".into()).as_float().is_err());
    }

    #[test]
    fn float_display_round_trips_precision() {
        let v = Value::Float(0.1 + 0.2);
        let parsed: f64 = v.to_string().parse().unwrap();
        assert_eq!(parsed, 0.1 + 0.2);
    }
}
