//! Graceful-shutdown flag for the fleet driver.
//!
//! A SIGINT (ctrl-c) on the driver must not leave workers wedged on a
//! half-written socket: the driver checks [`requested`] between shard
//! dispatches, drains whatever is in flight, sends every live worker a
//! `Shutdown` frame, and exits with the conventional 130. The handler
//! itself only stores a relaxed atomic — the one operation that is
//! async-signal-safe — and everything else happens on the normal
//! control path.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown has been requested (SIGINT).
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

#[cfg(unix)]
unsafe extern "C" fn on_sigint(_sig: i32) {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Installs the SIGINT handler. Call once, early, on the driver. No-op
/// off unix.
pub fn install_sigint_handler() {
    #[cfg(unix)]
    {
        // std links the platform libc already; declaring `signal`
        // directly avoids a dependency the build image doesn't have.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
}
