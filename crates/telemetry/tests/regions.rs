//! The region table: nesting, the five columns, the two reports, what a
//! foreign context attributes, what `reset` keeps. Own binary, and one lock
//! around every test: the table is process-global and `reset` zeroes it.

use exastro_telemetry::{RegionStats, Telemetry};
use std::sync::{Mutex, MutexGuard};

fn table_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn get(path: &str) -> RegionStats {
    Telemetry::region_stats(path).unwrap_or_else(|| panic!("no row {path}"))
}

#[test]
fn regions_nest_record_and_report() {
    let _table = table_lock();
    Telemetry::reset();
    {
        let _outer = Telemetry::region("prof_test_step");
        Telemetry::record_zones(100);
        {
            let _inner = Telemetry::region("hydro");
            Telemetry::record_zones(40);
        }
        {
            let _inner = Telemetry::region("hydro");
            Telemetry::record_zones(2);
        }
        {
            let _io = Telemetry::region("io/checkpoint");
            Telemetry::record_bytes(1_000_000);
        }
        {
            let _b = Telemetry::region("burn");
            Telemetry::record_retries(3);
            Telemetry::record_retries(0); // no-op
            Telemetry::record_ns("solve[dense]", 1500);
            Telemetry::record_ns("solve[dense]", 500);
        }
    }
    let outer = get("prof_test_step");
    assert_eq!((outer.calls, outer.zones), (1, 100));
    let inner = get("prof_test_step/hydro");
    assert_eq!((inner.calls, inner.zones), (2, 42));
    assert!(outer.wall_ns >= inner.wall_ns);
    assert_eq!(get("prof_test_step/io/checkpoint").bytes, 1_000_000);
    assert_eq!(get("prof_test_step/burn").retries, 3);
    let solve = get("prof_test_step/burn/solve[dense]");
    assert_eq!((solve.calls, solve.wall_ns), (2, 2000));

    let report = Telemetry::region_report();
    assert!(report.contains("prof_test_step/hydro"));
    assert!(report.contains("retries"));

    // The JSON shares the text report's pass: same rows, same
    // deterministic tie-sorted order, machine-readable.
    let json = Telemetry::region_report_json();
    assert!(json.contains("\"path\": \"prof_test_step/hydro\""));
    assert!(json.contains("\"zones\": 42"));
    assert!(json.contains("\"total_ns\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    let (rows, _) = Telemetry::region_rows();
    let mut pos = 0;
    for (p, _) in &rows {
        let at = json
            .find(&format!("\"path\": \"{p}\""))
            .expect("row in json");
        assert!(at >= pos, "json row order must match report order");
        pos = at;
    }
    for pair in rows.windows(2) {
        let ((pa, a), (pb, b)) = (&pair[0], &pair[1]);
        assert!(a.wall_ns > b.wall_ns || (a.wall_ns == b.wall_ns && pa < pb));
    }

    // A foreign context (what a pool worker adopts) attributes records,
    // and the thread's own comes back.
    let foreign = {
        let _step = Telemetry::region("prof_test_step");
        let _installed = Telemetry::region("installed");
        Telemetry::context()
    };
    let top = Telemetry::context();
    let own = Telemetry::set_context(foreign);
    assert_eq!(own, top);
    assert_eq!(foreign.pool_label(), "pool:installed");
    Telemetry::record_zones(5);
    assert_eq!(Telemetry::set_context(own), foreign);
    assert_eq!(get("prof_test_step/installed").zones, 5);

    // Zones recorded with no open region land in "(top)".
    Telemetry::record_zones(7);
    assert_eq!(get("(top)").zones, 7);

    Telemetry::reset();
    assert!(Telemetry::region_stats("prof_test_step").is_none());
    assert!(Telemetry::region_rows().0.is_empty());
}

#[test]
fn a_reset_while_a_region_is_open_neither_panics_nor_loses_the_close() {
    let _table = table_lock();
    Telemetry::reset();
    {
        let _outer = Telemetry::region("reset_test_outer");
        let inner = Telemetry::region("inner");
        Telemetry::record_zones(9);
        Telemetry::reset();
        assert!(Telemetry::region_stats("reset_test_outer/inner").is_none());
        Telemetry::record_zones(3);
        drop(inner);
        let row = get("reset_test_outer/inner");
        assert_eq!((row.calls, row.zones), (1, 3), "zeroed, then closed into");
    }
    assert_eq!(get("reset_test_outer").calls, 1);
    Telemetry::reset();
}

#[test]
fn top_level_is_parent_is_root_not_no_slash_in_the_path() {
    // `CheckpointManager::write` opens a region *named* `io/checkpoint`,
    // and the service and `examples/restart` call it outside any driver
    // region. Its time is top-level time: at PR 19 "no `/` in the path"
    // left it out of the total and every `%top` was overstated.
    let _table = table_lock();
    Telemetry::reset();
    {
        let _step = Telemetry::region("toplevel_test_step");
        Telemetry::record_ns("hydro", 600);
    }
    Telemetry::record_ns("io/checkpoint", 400);
    let (rows, total_ns) = Telemetry::region_rows();
    let wall = |path: &str| rows.iter().find(|(p, _)| p == path).expect(path).1.wall_ns;
    assert_eq!(
        total_ns,
        wall("toplevel_test_step") + wall("io/checkpoint"),
        "both were opened with no region open"
    );
    assert_eq!(wall("io/checkpoint"), 400);
    // A nested region of the same name is not top-level.
    {
        let _step = Telemetry::region("toplevel_test_step");
        Telemetry::record_ns("io/checkpoint", 1_000_000_000);
    }
    let (_, total_after) = Telemetry::region_rows();
    assert!(total_after < 1_000_000_000);
    Telemetry::reset();
}
