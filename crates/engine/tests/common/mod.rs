//! Helpers shared by the engine's integration tests.

use std::panic::PanicHookInfo;
use std::sync::{Mutex, MutexGuard};

type PrevHook = Box<dyn Fn(&PanicHookInfo<'_>) + Sync + Send>;

/// Run `f` with the default panic hook silenced, so deliberate canary
/// panics do not clutter test output. The hook is global process state: a
/// mutex serializes concurrent users within one test binary, and a drop
/// guard restores the previous hook even if `f` itself panics (a failing
/// assertion inside `f` must not mute every later test's diagnostics).
pub fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    static HOOK_LOCK: Mutex<()> = Mutex::new(());
    struct Restore<'a> {
        prev: Option<PrevHook>,
        _serialize: MutexGuard<'a, ()>,
    }
    impl Drop for Restore<'_> {
        fn drop(&mut self) {
            if let Some(prev) = self.prev.take() {
                std::panic::set_hook(prev);
            }
        }
    }
    let guard = match HOOK_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let _restore = Restore {
        prev: Some(prev),
        _serialize: guard,
    };
    f()
}
