//! Append-only, time-indexed record log — the Simple Log Service stand-in.
//!
//! CloudBot stores raw events in SLS for fast searching before they are
//! synchronized to warehouse tables (Section V). This in-memory log offers
//! the two operations that workflow needs: concurrent appends and efficient
//! time-range scans, plus a drain-to-table sync point.

use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock};

/// A timestamped record log, generic over the record payload.
///
/// Records are indexed by `(timestamp, sequence)` so that multiple records
/// at the same timestamp are all retained in arrival order.
#[derive(Debug, Default)]
pub struct EventLog<T> {
    inner: RwLock<LogInner<T>>,
}

#[derive(Debug)]
struct LogInner<T> {
    records: BTreeMap<(i64, u64), T>,
    next_seq: u64,
}

impl<T> Default for LogInner<T> {
    fn default() -> Self {
        LogInner { records: BTreeMap::new(), next_seq: 0 }
    }
}

impl<T: Clone> EventLog<T> {
    /// Empty log.
    pub fn new() -> Self {
        EventLog { inner: RwLock::new(LogInner::default()) }
    }

    /// Append one record at a timestamp (thread-safe).
    pub fn append(&self, timestamp: i64, record: T) {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.records.insert((timestamp, seq), record);
    }

    /// Append many records.
    pub fn append_batch(&self, records: impl IntoIterator<Item = (i64, T)>) {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        for (t, r) in records {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            inner.records.insert((t, seq), r);
        }
    }

    /// All records with timestamps in `[start, end)`, in time order.
    pub fn query_range(&self, start: i64, end: i64) -> Vec<(i64, T)> {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        inner
            .records
            .range((start, 0)..(end, 0))
            .map(|(&(t, _), r)| (t, r.clone()))
            .collect()
    }

    /// Total number of records.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap_or_else(PoisonError::into_inner).records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return every record up to (excluding) `before` — the
    /// daily "synchronize to MaxCompute then truncate" step.
    pub fn drain_until(&self, before: i64) -> Vec<(i64, T)> {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let keep = inner.records.split_off(&(before, 0));
        let drained = std::mem::replace(&mut inner.records, keep);
        drained.into_iter().map(|((t, _), r)| (t, r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_range_query() {
        let log = EventLog::new();
        log.append(10, "a");
        log.append(20, "b");
        log.append(30, "c");
        assert_eq!(log.len(), 3);
        let got = log.query_range(10, 30);
        assert_eq!(got, vec![(10, "a"), (20, "b")]);
        // End is exclusive, start inclusive.
        assert_eq!(log.query_range(30, 31), vec![(30, "c")]);
        assert!(log.query_range(31, 100).is_empty());
    }

    #[test]
    fn same_timestamp_keeps_arrival_order() {
        let log = EventLog::new();
        log.append(5, 1);
        log.append(5, 2);
        log.append(5, 3);
        assert_eq!(log.query_range(5, 6), vec![(5, 1), (5, 2), (5, 3)]);
    }

    #[test]
    fn batch_append() {
        let log = EventLog::new();
        log.append_batch((0..10).map(|i| (i, i * 2)));
        assert_eq!(log.len(), 10);
        assert_eq!(log.query_range(3, 5), vec![(3, 6), (4, 8)]);
    }

    #[test]
    fn drain_until_splits_and_removes() {
        let log = EventLog::new();
        log.append_batch((0..10).map(|i| (i, i)));
        let drained = log.drain_until(5);
        assert_eq!(drained.iter().map(|&(t, _)| t).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(log.len(), 5);
        assert_eq!(log.query_range(0, 100).len(), 5);
        assert!(log.query_range(0, 5).is_empty());
    }

    #[test]
    fn concurrent_appends_all_land() {
        let log = std::sync::Arc::new(EventLog::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let log = std::sync::Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..250 {
                        log.append(t * 1000 + i, i);
                    }
                });
            }
        });
        assert_eq!(log.len(), 1000);
    }

    #[test]
    fn empty_log() {
        let log: EventLog<u8> = EventLog::new();
        assert!(log.is_empty());
        assert!(log.drain_until(100).is_empty());
    }
}
