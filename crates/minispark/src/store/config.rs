//! Versioned key-value configuration store — the MySQL stand-in.
//!
//! The weighting configuration (ticket-derived customer levels, AHP
//! priorities) lives in MySQL in production and is "adjusted based on the
//! classification results and expert insights" (Section V). This store keeps
//! every historical version so a CDI recomputation for a past day can use
//! the configuration that was active then.

use std::collections::HashMap;
use std::sync::{PoisonError, RwLock};

use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::error::{Result, SparkError};

/// One stored version of a configuration value.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigVersion {
    /// Monotonic version number (1-based per key).
    pub version: u64,
    /// Timestamp the version was written (caller-supplied, ms).
    pub updated_at: i64,
    /// JSON-encoded payload.
    pub payload: serde_json::Value,
}

/// A thread-safe, versioned configuration store.
#[derive(Debug, Default)]
pub struct ConfigStore {
    inner: RwLock<HashMap<String, Vec<ConfigVersion>>>,
}

impl ConfigStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write a new version of `key`, returning the version number.
    pub fn put<T: Serialize>(&self, key: &str, updated_at: i64, value: &T) -> Result<u64> {
        let payload = serde_json::to_value(value)?;
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let versions = inner.entry(key.to_string()).or_default();
        let version = versions.len() as u64 + 1;
        versions.push(ConfigVersion { version, updated_at, payload });
        Ok(version)
    }

    /// Read the latest version of `key`.
    pub fn get<T: DeserializeOwned>(&self, key: &str) -> Result<T> {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let versions = inner
            .get(key)
            .ok_or_else(|| SparkError::invalid(format!("unknown config key '{key}'")))?;
        // `set` never leaves an empty version list behind a key.
        let latest = versions
            .last()
            .ok_or_else(|| SparkError::invalid(format!("config key '{key}' has no versions")))?;
        Ok(serde_json::from_value(latest.payload.clone())?)
    }

    /// Read the version of `key` that was active at `at` (the newest version
    /// with `updated_at <= at`).
    pub fn get_as_of<T: DeserializeOwned>(&self, key: &str, at: i64) -> Result<T> {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let versions = inner
            .get(key)
            .ok_or_else(|| SparkError::invalid(format!("unknown config key '{key}'")))?;
        let active = versions
            .iter()
            .rev()
            .find(|v| v.updated_at <= at)
            .ok_or_else(|| {
                SparkError::invalid(format!("no version of '{key}' active at {at}"))
            })?;
        Ok(serde_json::from_value(active.payload.clone())?)
    }

    /// Full version history of a key (empty if unknown).
    pub fn history(&self, key: &str) -> Vec<ConfigVersion> {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        inner.get(key).cloned().unwrap_or_default()
    }

    /// All keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let mut keys: Vec<String> = inner.keys().cloned().collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let store = ConfigStore::new();
        let v = store.put("alpha", 100, &(0.5f64, 0.5f64)).unwrap();
        assert_eq!(v, 1);
        let got: (f64, f64) = store.get("alpha").unwrap();
        assert_eq!(got, (0.5, 0.5));
    }

    #[test]
    fn versions_increment_and_latest_wins() {
        let store = ConfigStore::new();
        assert_eq!(store.put("k", 10, &1u32).unwrap(), 1);
        assert_eq!(store.put("k", 20, &2u32).unwrap(), 2);
        assert_eq!(store.put("k", 30, &3u32).unwrap(), 3);
        let latest: u32 = store.get("k").unwrap();
        assert_eq!(latest, 3);
        assert_eq!(store.history("k").len(), 3);
    }

    #[test]
    fn as_of_returns_historically_active_version() {
        let store = ConfigStore::new();
        store.put("k", 10, &"v1").unwrap();
        store.put("k", 20, &"v2").unwrap();
        let at_15: String = store.get_as_of("k", 15).unwrap();
        assert_eq!(at_15, "v1");
        let at_20: String = store.get_as_of("k", 20).unwrap();
        assert_eq!(at_20, "v2");
        assert!(store.get_as_of::<String>("k", 5).is_err());
    }

    #[test]
    fn unknown_key_errors() {
        let store = ConfigStore::new();
        assert!(store.get::<u32>("missing").is_err());
        assert!(store.history("missing").is_empty());
    }

    #[test]
    fn structured_payloads() {
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
        struct Weights {
            expert: f64,
            customer: f64,
        }
        let store = ConfigStore::new();
        store.put("w", 0, &Weights { expert: 0.75, customer: 0.25 }).unwrap();
        let w: Weights = store.get("w").unwrap();
        assert_eq!(w, Weights { expert: 0.75, customer: 0.25 });
        // Reading into the wrong shape errors rather than garbling.
        assert!(store.get::<Vec<u8>>("w").is_err());
    }

    #[test]
    fn keys_sorted() {
        let store = ConfigStore::new();
        store.put("zeta", 0, &1).unwrap();
        store.put("alpha", 0, &2).unwrap();
        assert_eq!(store.keys(), vec!["alpha", "zeta"]);
    }
}
