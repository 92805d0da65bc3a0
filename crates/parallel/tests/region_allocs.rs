//! The always-on region table costs no allocation once a path has been
//! used: a thread's context is one integer and a row is indexed by it. At
//! PR 19 a region open/close built two `String`s, `record_zones` one, and
//! every `WorkerPool::run` — pooled or inline — cloned a `Vec<String>`.

#[path = "../../telemetry/tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_during;
use exastro_parallel::{Tasks, Telemetry, WorkerPool};

fn step(pool: &WorkerPool) {
    let _step = Telemetry::region("alloc_test_step");
    Telemetry::record_zones(64);
    {
        let _inner = Telemetry::region("fill_boundary");
        Telemetry::record_zones(8);
        Telemetry::record_bytes(512);
        Telemetry::record_ns("solve[dense]", 100);
    }
    // One task: runs inline on the caller, as a single-box fill does.
    pool.run(1, usize::MAX, &|tasks: Tasks<'_>| {
        while tasks.next_task().is_some() {
            Telemetry::record_zones(1);
        }
    });
}

#[test]
fn regions_records_and_inline_pool_runs_allocate_nothing_after_first_use() {
    let pool = WorkerPool::new(1);
    step(&pool); // interns the three paths
    for enabled in [false, true] {
        if enabled {
            Telemetry::enable();
            step(&pool); // this thread's trace shard reserves its ring
        }
        let allocs = allocations_during(|| {
            for _ in 0..100 {
                step(&pool);
            }
        });
        Telemetry::disable();
        assert_eq!(allocs, 0, "telemetry enabled: {enabled}");
    }
    let inner = Telemetry::region_stats("alloc_test_step/fill_boundary").expect("row");
    assert_eq!(
        (inner.calls, inner.zones, inner.bytes),
        (202, 202 * 8, 202 * 512)
    );
    let step_row = Telemetry::region_stats("alloc_test_step").expect("row");
    assert_eq!(
        step_row.zones,
        202 * 65,
        "the inline body recorded into the submitter's row"
    );
    assert_eq!(pool.stats().serial_regions, 202);
}
