//! Helpers shared by the integration tests of this crate, and by path
//! (`#[path = ".."] mod`) with `crates/maestro/tests/validator.rs`.

use exastro_parallel::par_index_each;
use std::sync::Mutex;

/// Run `f` as a task of a pool region. A region launched from inside one
/// executes inline on the launching thread (see `exastro_parallel::pool`),
/// so everything `f` launches runs on one thread.
pub fn on_one_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    let job = Mutex::new(Some(f));
    let out = Mutex::new(None);
    par_index_each(2, 2, |task| {
        if task == 0 {
            let f = job.lock().unwrap().take().expect("task 0 runs once");
            *out.lock().unwrap() = Some(f());
        }
    });
    out.into_inner().unwrap().expect("task 0 ran")
}
