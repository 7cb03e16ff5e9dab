//! The query-side rewrites answer exactly what the code they replaced
//! answered: the bounded top-K select against sort-then-truncate, and the
//! one-lock-per-shard rollup against one `vm_row` per VM.

use std::sync::Arc;

use cdi_core::error::Result;
use cdi_core::event::{Category, EventSpan, Target};
use cdi_core::indicator::{aggregate, CdiBreakdown};
use cdi_core::time::minutes;
use cdi_serve::shard::{ShardMsg, ShardState};
use cdi_serve::{rollup, CdiService, ServeConfig};
use proptest::prelude::*;
use simfleet::{Fleet, FleetConfig, Scope};

/// Deliveries from spaces small enough that many targets share a score
/// (and every target scores 0.0 in the categories it has no span in).
fn delivery_strategy() -> impl Strategy<Value = (Target, EventSpan)> {
    (0u64..40, 0u64..2, 0i64..4, 1i64..4, 1u32..3, 0usize..3).prop_map(
        |(id, kind, start, len, k, cat)| {
            let target = if kind == 0 { Target::Vm(id) } else { Target::Nc(id) };
            let span = EventSpan::new(
                "prop_event",
                Category::ALL[cat],
                minutes(30 * start),
                minutes(30 * start + 10 * len),
                f64::from(k) / 2.0,
            );
            (target, span)
        },
    )
}

/// What `ShardState::top_k` did before the select: every target's score,
/// sorted by (score descending, target), cut to `k`.
fn sort_then_truncate(st: &ShardState, k: usize, category: Category) -> Result<Vec<(Target, f64)>> {
    let mut rows = Vec::new();
    for snap in st.snapshot() {
        let cdi = st.point(snap.target).expect("a snapshotted target is tracked")?;
        rows.push((snap.target, cdi.get(category)));
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(k);
    Ok(rows)
}

proptest! {
    #[test]
    fn top_k_select_equals_sort_then_truncate(
        deliveries in prop::collection::vec(delivery_strategy(), 0..80),
        mark in 0i64..200,
        k in prop_oneof![0usize..90, Just(usize::MAX)],
    ) {
        let mut st = ShardState::new(0);
        for (target, span) in &deliveries {
            st.apply(ShardMsg::Span { target: *target, span: span.clone() });
        }
        // `mark == 0` is the "no elapsed service time" error on both sides.
        st.apply(ShardMsg::Watermark(minutes(mark)));
        for category in Category::ALL {
            prop_assert_eq!(st.top_k(k, category), sort_then_truncate(&st, k, category));
        }
    }
}

fn fleet() -> Fleet {
    Fleet::build(&FleetConfig {
        regions: vec!["r1".into(), "r2".into()],
        azs_per_region: 2,
        clusters_per_az: 2,
        ncs_per_cluster: 2,
        vms_per_nc: 3,
        nc_cores: 8,
        machine_models: vec!["mA".into()],
        arch: simfleet::DeploymentArch::Hybrid,
    })
}

/// The rollup as it was: two lock acquisitions per VM.
fn per_vm_rollup(
    service: &CdiService,
    fleet: &Fleet,
    scope: &Scope,
) -> Result<(usize, CdiBreakdown)> {
    let rows =
        fleet.vms_in(scope).iter().map(|&vm| service.vm_row(vm)).collect::<Result<Vec<_>>>()?;
    Ok((rows.len(), aggregate(&rows)?))
}

#[test]
fn batched_rollup_equals_the_per_vm_rollup_bit_for_bit_at_every_shard_count() {
    let fleet = Arc::new(fleet());
    let nc = fleet.ncs()[3].id;
    let scopes = [
        Scope::Region("r1".into()),
        Scope::Region("r2".into()),
        Scope::Az(fleet.ncs()[0].az.clone()),
        Scope::Cluster(fleet.ncs()[5].cluster.clone()),
        Scope::Nc(nc),
        Scope::Vm(fleet.vms_on(nc)[1]),
        Scope::Region("nowhere".into()),
    ];
    for shards in [1, 2, 3, 5] {
        let service = CdiService::new(ServeConfig { shards, ..ServeConfig::default() })
            .unwrap()
            .with_fleet_routing(&fleet);

        // Before any watermark there is no service time to divide by.
        for scope in &scopes {
            let old = per_vm_rollup(&service, &fleet, scope);
            assert!(old.is_err());
            assert_eq!(rollup(&service, &fleet, scope).map(|_| ()), old.map(|_| ()));
        }

        // Damage on every third VM (weights off every binary grid), one NC
        // event that fans out to its VMs; the other VMs are never seen.
        for (i, vm) in fleet.vms_in(&Scope::Region("r1".into())).iter().enumerate() {
            if i % 3 == 0 {
                let w = (i % 7 + 1) as f64 / 7.0;
                let len = 3 + i as i64 % 11;
                let cat = Category::ALL[i % 3];
                let span = EventSpan::new("e", cat, minutes(5), minutes(5 + len), w);
                service.ingest(Target::Vm(*vm), span);
            }
        }
        let span = EventSpan::new("nc_e", Category::Unavailability, minutes(20), minutes(31), 0.3);
        service.ingest(Target::Nc(nc), span);
        service.advance_watermark(minutes(97)).unwrap();
        service.flush();
        assert!(service.target_count() < fleet.vms_in(&Scope::Region("r1".into())).len());

        for scope in &scopes {
            let old = per_vm_rollup(&service, &fleet, scope);
            let new = rollup(&service, &fleet, scope).map(|r| (r.vm_count, r.breakdown));
            assert_eq!(new, old, "{scope:?} at {shards} shards");
            assert_eq!(old.is_err(), *scope == Scope::Region("nowhere".into()));

            let vms = fleet.vms_in(scope);
            let rows: Vec<_> = vms.iter().map(|&vm| service.vm_row(vm).unwrap()).collect();
            assert_eq!(service.vm_rows(&vms).unwrap(), rows);
        }
    }
}

#[test]
fn an_absurd_k_from_the_wire_is_clamped_to_what_exists() {
    let service = CdiService::new(ServeConfig { shards: 2, ..ServeConfig::default() }).unwrap();
    for vm in 0..5 {
        let span = EventSpan::new("e", Category::Performance, 0, minutes(1 + vm), 0.5);
        service.ingest(Target::Vm(vm as u64), span);
    }
    service.advance_watermark(minutes(10)).unwrap();
    service.flush();
    let all = service.top_k(usize::MAX, Category::Performance).unwrap();
    let worst_first: Vec<Target> = (0..5).rev().map(Target::Vm).collect();
    assert_eq!(all.iter().map(|r| r.0).collect::<Vec<_>>(), worst_first);
    assert!(service.top_k(0, Category::Performance).unwrap().is_empty());
}
