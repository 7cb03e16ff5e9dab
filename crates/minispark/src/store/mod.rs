//! Storage substrates mirroring the paper's deployment (Fig. 4).
//!
//! | Paper (production)         | Here                          |
//! |----------------------------|-------------------------------|
//! | Simple Log Service (SLS)   | [`EventLog`] — append-only, time-indexed |
//! | MaxCompute tables          | [`Table`] / [`Catalog`] — columnar, `cdipack` (`.cdp`) persistence |
//! | MySQL configuration        | [`ConfigStore`] — versioned key-value store |

mod config;
mod event_log;
mod table;

pub use config::{ConfigStore, ConfigVersion};
pub use event_log::EventLog;
pub use table::{
    Catalog, Column, ColumnArc, ColumnType, PackedTable, Row, Schema, Table, Value,
    TABLE_PACK_MAGIC,
};
