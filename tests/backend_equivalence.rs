//! The archive-backend contract.
//!
//! The [`ArchiveSet`](hams::flash::ArchiveSet) topology layer sits between
//! the HAMS controller and its ULL-Flash devices. Its pinned contract has
//! two halves:
//!
//! 1. **Single is the pre-topology engine, byte for byte.**
//!    `run_workload_backend` under [`BackendTopology::single`] — and under a
//!    one-device RAID-0 — is byte-identical to the unconfigured per-access
//!    reference `run_workload_serial`, for all 11 platforms (the CI matrix
//!    re-runs this suite under `HAMS_THREADS` ∈ {1, 8} × `HAMS_SHARDS` ∈
//!    {1, 4} × `HAMS_DEVICES` ∈ {1, 4}).
//! 2. **Striping partitions work, it does not change it.** A multi-device
//!    RAID-0 run serves the same command stream as its single-device twin —
//!    per-device byte totals sum exactly to the single-device totals, cache
//!    behaviour (hits, misses, fills, evictions) is identical — while the
//!    timing legitimately improves: that is what the fan-out buys, and the
//!    `hams-TE-d{n}` sweep pins `d{n}` strictly beating `d1` on random
//!    reads. Batched multi-device serving stays byte-identical to its own
//!    serial reference (`run_workload_serial` on a platform given the same
//!    topology) at every thread count and batch size.

use hams::platforms::{
    build_cxl_platform, build_raid_sweep_platform, cxl_label, raid_sweep_label,
    register_hams_raid_sweep, run_grid_with, run_workload_backend, run_workload_serial,
    BackendTopology, PlatformKind, PlatformRegistry, ScaleProfile,
};
use hams::workloads::WorkloadSpec;

fn tiny() -> ScaleProfile {
    ScaleProfile {
        capacity_divisor: 4096,
        accesses: 1_200,
        seed: 37,
    }
}

#[test]
fn single_backend_is_byte_identical_to_the_pre_topology_reference_on_all_platforms() {
    let scale = tiny();
    let spec = WorkloadSpec::by_name("rndWr").unwrap();
    for kind in PlatformKind::all() {
        // The serial twin is pinned to the single backend too, so the test
        // holds on every CI leg — under `HAMS_DEVICES=4` the *unconfigured*
        // HAMS default is a RAID set, and `configure_backend` is exactly
        // the lever that opts back down to the pre-topology engine.
        let mut serial = kind.build(&scale);
        serial.configure_backend(BackendTopology::single());
        let reference = run_workload_serial(serial.as_mut(), spec, &scale);
        for topology in [BackendTopology::single(), BackendTopology::raid0(1)] {
            let mut configured = kind.build(&scale);
            let m = run_workload_backend(configured.as_mut(), spec, &scale, topology);
            assert_eq!(
                m,
                reference,
                "{}: {topology:?} diverged from the single-backend serial reference",
                kind.label()
            );
        }
        // Without the env override the unconfigured platform *is* the
        // pre-topology engine: the batched default path must match the
        // pinned single-backend reference byte for byte.
        if BackendTopology::from_env().is_none() {
            let mut unconfigured = kind.build(&scale);
            let plain = run_workload_serial(unconfigured.as_mut(), spec, &scale);
            assert_eq!(
                plain,
                reference,
                "{}: the unconfigured default diverged from BackendTopology::single()",
                kind.label()
            );
        }
    }
}

#[test]
fn only_platforms_with_an_in_controller_archive_honour_the_backend() {
    let scale = tiny();
    for kind in PlatformKind::all() {
        let mut platform = kind.build(&scale);
        let honoured = platform.configure_backend(BackendTopology::raid0(4));
        let is_hams = kind.label().starts_with("hams");
        assert_eq!(
            honoured,
            is_hams,
            "{}: only the HAMS variants own an archive set",
            kind.label()
        );
    }
}

#[test]
fn raid_serving_is_byte_identical_between_batched_and_serial_paths() {
    // Multi-device timing differs from single-device — that is the point —
    // so RAID runs pin against their own serial reference, exactly like the
    // multi-queue contract.
    let scale = tiny();
    let topology = BackendTopology::raid0(4);
    for workload in ["rndRd", "update"] {
        let spec = WorkloadSpec::by_name(workload).unwrap();
        for kind in [PlatformKind::HamsTE, PlatformKind::HamsLP] {
            let mut serial = kind.build(&scale);
            serial.configure_backend(topology);
            let s = run_workload_serial(serial.as_mut(), spec, &scale);
            let mut batched = kind.build(&scale);
            let b = run_workload_backend(batched.as_mut(), spec, &scale, topology);
            assert_eq!(
                s,
                b,
                "{} on {workload}: batched RAID serving diverged from serial",
                kind.label()
            );
        }
    }
}

#[test]
fn raid_per_device_traffic_sums_to_the_single_device_totals() {
    let scale = ScaleProfile {
        capacity_divisor: 2048,
        accesses: 2_500,
        seed: 9,
    };
    let spec = WorkloadSpec::by_name("rndRd").unwrap();
    let mut d1 = build_raid_sweep_platform(&scale, 1);
    let mut d4 = build_raid_sweep_platform(&scale, 4);
    let m1 = hams::platforms::run_workload(&mut d1, spec, &scale);
    let m4 = hams::platforms::run_workload(&mut d4, spec, &scale);

    // Identical work, partitioned across four archives…
    assert_eq!(m1.accesses, m4.accesses);
    let single = d1.controller().archive().stats();
    let raid = d4.controller().archive().stats();
    assert_eq!(raid.bytes_read, single.bytes_read);
    assert_eq!(raid.bytes_written, single.bytes_written);
    // Fill stripe commands are stripe-aligned (4 KB each), so they route
    // whole and their count is invariant; whole-page eviction writes split
    // at stripe boundaries, counting once per segment — their *bytes* are
    // what must (and do) sum exactly.
    assert_eq!(raid.read_commands, single.read_commands);
    assert!(raid.write_commands >= single.write_commands);
    assert_eq!(
        d1.controller().stats().fill_bytes,
        d4.controller().stats().fill_bytes
    );
    assert_eq!(d1.controller().stats().hits, d4.controller().stats().hits);
    assert_eq!(
        d1.controller().stats().misses,
        d4.controller().stats().misses
    );
    let spread = d4
        .controller()
        .archive()
        .device_stats()
        .iter()
        .filter(|s| s.bytes_read + s.bytes_written > 0)
        .count();
    assert!(spread > 1, "traffic must actually fan out, spread={spread}");

    // …finished strictly faster — the acceptance bar for the d{n} sweep.
    assert!(
        m4.total_time < m1.total_time,
        "RAID-0 d4 ({}) must strictly beat d1 ({}) on random reads",
        m4.total_time,
        m1.total_time
    );
    assert!(m4.pages_per_sec > m1.pages_per_sec);
}

#[test]
fn raid_sweep_grid_rows_match_their_serial_twins() {
    let scale = tiny();
    let spec = WorkloadSpec::by_name("rndRd").unwrap();
    let mut registry = PlatformRegistry::standard();
    register_hams_raid_sweep(&mut registry, &[1, 2, 4]);
    let mut labels: Vec<String> = [1u16, 2, 4].iter().map(|&n| raid_sweep_label(n)).collect();
    labels.push(cxl_label());
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();

    // Serial reference: each sweep cell through the per-access loop. The
    // entries carry their BackendTopology in the constructor, so this loop
    // is the backend serial reference for them.
    let serial: Vec<_> = label_refs
        .iter()
        .map(|label| {
            let mut platform = registry.build(label, &scale).unwrap();
            run_workload_serial(platform.as_mut(), spec, &scale)
        })
        .collect();

    let grid = run_grid_with(&registry, &label_refs, &[spec], &scale);
    assert_eq!(grid, serial, "device sweep grid diverged from serial");
}

#[test]
fn cxl_attached_backend_trails_the_ddr4_attach_and_still_routes_identically() {
    let scale = ScaleProfile {
        capacity_divisor: 2048,
        accesses: 2_000,
        seed: 5,
    };
    let spec = WorkloadSpec::by_name("rndRd").unwrap();
    let mut tight = build_raid_sweep_platform(&scale, 4);
    let mut cxl = build_cxl_platform(&scale);
    assert!(cxl.controller().backend_topology().uses_cxl());
    let m_tight = hams::platforms::run_workload(&mut tight, spec, &scale);
    let m_cxl = hams::platforms::run_workload(&mut cxl, spec, &scale);
    // Same stripe routing → same per-device traffic…
    assert_eq!(
        tight.controller().archive().stats(),
        cxl.controller().archive().stats()
    );
    // …but the CXL link is slower than the DDR4 register attach.
    assert!(
        m_cxl.total_time > m_tight.total_time,
        "CXL attach ({}) must pay more than the DDR4 attach ({})",
        m_cxl.total_time,
        m_tight.total_time
    );
}
