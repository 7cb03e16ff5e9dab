//! The context every report and trace carries, so nobody compares a
//! 1-core container to a laptop again.

use serde::Serialize;

use crate::spec::{self, Scale};

/// Where and how the numbers were taken.
#[derive(Debug, Clone, Serialize)]
pub struct Context {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `release`, or `debug` (which the binary refuses to report from).
    pub profile: &'static str,
    /// `rustc --version`.
    pub rustc: String,
    /// `HEAD` of the checkout, or `unknown` outside a git repository.
    pub git_commit: String,
    /// The input seed.
    pub seed: u64,
    /// Fleet shape: VMs and NCs.
    pub fleet: String,
    /// Service shape of every live workload.
    pub service: String,
    /// `daily_job::run` shape.
    pub daily_job: String,
    /// Workspace dependencies that resolve to `tools/offline-stubs`.
    pub stub_deps: Vec<String>,
}

impl Context {
    /// Gather the context from the build, the toolchain and the checkout
    /// the process runs in.
    pub fn gather(seed: u64, scale: &Scale) -> Context {
        let fleet = scale.fleet();
        let ncs = fleet.regions.len()
            * fleet.azs_per_region
            * fleet.clusters_per_az
            * fleet.ncs_per_cluster;
        Context {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: std::process::Command::new("rustc")
                .arg("--version")
                .output()
                .ok()
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string()),
            git_commit: git_head().unwrap_or_else(|| "unknown".to_string()),
            seed,
            fleet: format!("{} VMs on {} NCs", ncs * fleet.vms_per_nc, ncs),
            service: format!(
                "shards {} queue_capacity {} policy Block server_workers {} cdipack",
                spec::SHARDS,
                spec::QUEUE_CAPACITY,
                spec::SERVER_WORKERS
            ),
            daily_job: format!(
                "threads {} partitions {}",
                spec::JOB_THREADS,
                spec::JOB_PARTITIONS
            ),
            stub_deps: stub_deps(),
        }
    }
}

/// `HEAD` read straight from `.git` in the working directory.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)
            .map(|hash| hash.trim().to_string())
    })
}

/// Names in the workspace manifest's `[workspace.dependencies]` whose
/// path points into `tools/offline-stubs`.
fn stub_deps() -> Vec<String> {
    let manifest = std::fs::read_to_string("Cargo.toml").unwrap_or_default();
    manifest
        .lines()
        .filter(|l| l.contains("tools/offline-stubs/"))
        .filter_map(|l| l.split('=').next())
        .map(|name| name.trim().to_string())
        .filter(|name| !name.is_empty() && !name.starts_with('#') && name != "exclude")
        .collect()
}
